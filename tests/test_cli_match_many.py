"""CLI tests for ``match-many``, ``--pipeline``, and the JSON
timings/stats payload."""

from __future__ import annotations

import json

import pytest

from repro.cli import main, parse_pipeline_spec
from repro.exceptions import ReproError

_MEDIATED = """
CREATE TABLE Orders (
  OrderID int PRIMARY KEY,
  Quantity int,
  UnitPrice money,
  City varchar(30)
);
"""

_SOURCE_A = """
CREATE TABLE Purchases (
  PurchaseID int PRIMARY KEY,
  Qty int,
  UnitCost money,
  Town varchar(30)
);
"""

_SOURCE_B = """
CREATE TABLE Sales (
  SaleID int PRIMARY KEY,
  Quantity int,
  Price money,
  City varchar(30)
);
"""


@pytest.fixture
def schema_files(tmp_path):
    mediated = tmp_path / "mediated.sql"
    mediated.write_text(_MEDIATED)
    a = tmp_path / "a.sql"
    a.write_text(_SOURCE_A)
    b = tmp_path / "b.sql"
    b.write_text(_SOURCE_B)
    return str(mediated), str(a), str(b)


class TestParsePipelineSpec:
    def test_single_override(self):
        assert parse_pipeline_spec("mapping=one-to-one") == [
            ("mapping", "one-to-one")
        ]

    def test_multiple_overrides(self):
        assert parse_pipeline_spec(
            "linguistic=off, mapping=hungarian"
        ) == [("linguistic", "off"), ("mapping", "hungarian")]

    def test_malformed_entry(self):
        with pytest.raises(ReproError, match="bad --pipeline entry"):
            parse_pipeline_spec("mapping")


class TestMatchJsonPayload:
    def test_json_includes_timings_and_stats(self, schema_files, capsys):
        mediated, a, _ = schema_files
        assert main(["match", mediated, a, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["elements"]
        for phase in ("linguistic", "trees", "treematch", "mapping"):
            assert data["timings_ms"][phase] >= 0.0
        stats = data["stats"]
        assert stats["engine"] == "dense"
        assert stats["compared_pairs"] > 0
        assert stats["leaf_mappings"] == len(data["elements"])

    def test_pipeline_override_one_to_one(self, schema_files, capsys):
        mediated, a, _ = schema_files
        assert main(
            ["match", mediated, a, "--format", "json",
             "--pipeline", "mapping=one-to-one"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        targets = [tuple(e["target_path"]) for e in data["elements"]]
        sources = [tuple(e["source_path"]) for e in data["elements"]]
        assert len(targets) == len(set(targets))
        assert len(sources) == len(set(sources))

    def test_pipeline_override_linguistic_off(self, schema_files, capsys):
        mediated, a, _ = schema_files
        assert main(
            ["match", mediated, a, "--format", "json",
             "--pipeline", "linguistic=off"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["lsim_entries"] == 0

    def test_bad_pipeline_spec_is_cli_error(self, schema_files, capsys):
        mediated, a, _ = schema_files
        assert main(
            ["match", mediated, a, "--pipeline", "nonsense=foo"]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestMatchMany:
    def test_text_output_has_one_section_per_target(
        self, schema_files, capsys
    ):
        mediated, a, b = schema_files
        assert main(["match-many", mediated, a, b]) == 0
        out = capsys.readouterr().out
        assert "mediated -> a:" in out
        assert "mediated -> b:" in out

    def test_json_output_shape(self, schema_files, capsys):
        mediated, a, b = schema_files
        assert main(
            ["match-many", mediated, a, b, "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["source_schema"] == "mediated"
        assert len(data["matches"]) == 2
        for match in data["matches"]:
            assert match["source_schema"] == "mediated"
            assert match["elements"]
            assert "timings_ms" in match and "stats" in match
        session = data["session"]
        assert session["matches"] == 2
        assert session["prepared_schemas"] == 3

    def test_memo_counters_reported_once_at_session_level(
        self, schema_files, capsys
    ):
        """The linguistic memo is session-cumulative; per-match stats
        must not misattribute its totals to individual matches."""
        mediated, a, b = schema_files
        assert main(
            ["match-many", mediated, a, b, "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        for match in data["matches"]:
            assert "token_sim_hits" not in match["stats"]
        assert data["session"]["token_sim_hits"] >= 0

    def test_json_matches_agree_with_single_match(
        self, schema_files, capsys
    ):
        mediated, a, b = schema_files
        assert main(
            ["match-many", mediated, a, b, "--format", "json"]
        ) == 0
        batch = json.loads(capsys.readouterr().out)
        assert main(["match", mediated, a, "--format", "json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert batch["matches"][0]["elements"] == single["elements"]

    def test_stats_flag_reports_session_cache(self, schema_files, capsys):
        mediated, a, b = schema_files
        assert main(["match-many", mediated, a, b, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "session cache" in err
        assert "prepared_schemas: 3" in err
        assert "run stats (mediated -> a)" in err

    def test_min_similarity_and_one_to_one(self, schema_files, capsys):
        mediated, a, b = schema_files
        assert main(
            ["match-many", mediated, a, b, "--format", "json",
             "--one-to-one", "--min-similarity", "0.5"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        for match in data["matches"]:
            for element in match["elements"]:
                assert element["similarity"] >= 0.5

    def test_engine_choice(self, schema_files, capsys):
        mediated, a, b = schema_files
        assert main(
            ["match-many", mediated, a, b, "--engine", "reference",
             "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["matches"][0]["stats"]["engine"] == "reference"

    def test_bad_config_value_is_cli_error(self, schema_files, capsys):
        mediated, a, _ = schema_files
        assert main(["match-many", mediated, a, "--cinc", "0.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_target_is_error(self, schema_files, capsys):
        mediated, a, _ = schema_files
        assert main(["match-many", mediated, a, "/nope/c.sql"]) == 1
        assert "error:" in capsys.readouterr().err

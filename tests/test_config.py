"""Tests for repro.config — the Table 1 parameters."""

import pytest

from repro.config import DEFAULT_CONFIG, CupidConfig
from repro.exceptions import ConfigError
from repro.linguistic.tokens import TokenType


class TestDefaults:
    def test_default_config_is_valid(self):
        DEFAULT_CONFIG.validate()

    def test_table1_typical_values(self):
        """The defaults are the paper's Table 1 typical values."""
        config = CupidConfig()
        assert config.thns == 0.5
        assert config.thhigh == 0.6
        assert config.thlow == 0.35
        assert config.cinc == 1.2
        assert config.cdec == 0.9
        assert config.thaccept == 0.5

    def test_wstruct_within_paper_range(self):
        config = CupidConfig()
        assert 0.5 <= config.wstruct <= 0.6
        assert 0.5 <= config.wstruct_leaf <= 0.6

    def test_wstruct_lower_for_leaves(self):
        """Table 1: wstruct is 'lower for leaf-leaf pairs'."""
        config = CupidConfig()
        assert config.wstruct_leaf <= config.wstruct

    def test_token_weights_sum_to_one(self):
        assert sum(CupidConfig().token_type_weights.values()) == pytest.approx(1.0)

    def test_content_and_concept_weigh_most(self):
        """Section 5.3: content and concept tokens get greater weight."""
        weights = CupidConfig().token_type_weights
        heavy = min(weights[TokenType.CONTENT], weights[TokenType.CONCEPT])
        light = max(
            weights[TokenType.NUMBER],
            weights[TokenType.SPECIAL],
            weights[TokenType.COMMON],
        )
        assert heavy > light

    def test_as_table_lists_all_table1_parameters(self):
        table = CupidConfig().as_table()
        for name in ("thns", "thhigh", "thlow", "cinc", "cdec", "thaccept"):
            assert name in table


class TestValidation:
    def test_thhigh_must_exceed_thaccept(self):
        with pytest.raises(ConfigError):
            CupidConfig(thhigh=0.5, thaccept=0.5).validate()

    def test_thlow_must_be_below_thaccept(self):
        with pytest.raises(ConfigError):
            CupidConfig(thlow=0.5, thaccept=0.5).validate()

    def test_cinc_must_be_at_least_one(self):
        with pytest.raises(ConfigError):
            CupidConfig(cinc=0.9).validate()

    def test_cdec_must_be_in_unit_interval(self):
        with pytest.raises(ConfigError):
            CupidConfig(cdec=0.0).validate()
        with pytest.raises(ConfigError):
            CupidConfig(cdec=1.5).validate()

    def test_thresholds_must_be_probabilities(self):
        with pytest.raises(ConfigError):
            CupidConfig(thns=1.5).validate()
        with pytest.raises(ConfigError):
            CupidConfig(thhigh=-0.1).validate()

    @pytest.mark.parametrize("value", [1.5, -0.2])
    def test_initial_mapping_lsim_must_be_a_similarity(self, value):
        """A hinted pair's lsim is set to this value, so one outside
        [0, 1] must fail at validation, before any match runs."""
        with pytest.raises(ConfigError, match="initial_mapping_lsim"):
            CupidConfig(initial_mapping_lsim=value).validate()
        for edge in (0.0, 1.0):
            CupidConfig(initial_mapping_lsim=edge).validate()

    def test_leaf_count_ratio_at_least_one(self):
        with pytest.raises(ConfigError):
            CupidConfig(leaf_count_ratio=0.5).validate()

    def test_negative_leaf_prune_depth_rejected(self):
        with pytest.raises(ConfigError):
            CupidConfig(leaf_prune_depth=-1).validate()

    def test_dense_engine_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_STDLIB", raising=False)
        config = CupidConfig()
        assert config.engine == "dense"
        assert config.dense_backend == "auto"

    def test_force_stdlib_env_overrides_backend_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_STDLIB", "1")
        assert CupidConfig().dense_backend == "stdlib"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            CupidConfig(engine="hash").validate()

    def test_unknown_dense_backend_rejected(self):
        with pytest.raises(ConfigError):
            CupidConfig(dense_backend="torch").validate()

    def test_max_prepared_schemas_non_negative(self):
        with pytest.raises(ConfigError):
            CupidConfig(max_prepared_schemas=-1).validate()
        CupidConfig(max_prepared_schemas=0).validate()  # 0 = unbounded
        CupidConfig(max_prepared_schemas=4).validate()

    def test_token_weights_must_sum_to_one(self):
        weights = {t: 0.0 for t in TokenType}
        weights[TokenType.CONTENT] = 0.5
        with pytest.raises(ConfigError):
            CupidConfig(token_type_weights=weights).validate()

    def test_negative_token_weight_rejected(self):
        weights = {
            TokenType.CONTENT: 1.2,
            TokenType.CONCEPT: -0.2,
            TokenType.NUMBER: 0.0,
            TokenType.SPECIAL: 0.0,
            TokenType.COMMON: 0.0,
        }
        with pytest.raises(ConfigError):
            CupidConfig(token_type_weights=weights).validate()


class TestReplace:
    def test_replace_returns_validated_copy(self):
        base = CupidConfig()
        changed = base.replace(cinc=1.35)
        assert changed.cinc == 1.35
        assert base.cinc == 1.2  # original untouched

    def test_replace_rejects_invalid_change(self):
        with pytest.raises(ConfigError):
            CupidConfig().replace(thhigh=0.2)

    def test_replace_keeps_other_fields(self):
        changed = CupidConfig(thns=0.7).replace(cinc=1.5)
        assert changed.thns == 0.7

"""Fault injection, crash-safe durability, and self-healing serving.

Four layers under test. The fault plan itself (spec grammar, hit
counting, deterministic corruption). The **crash sweep** — the
acceptance criterion of this subsystem: a subprocess driver ingests a
deterministic corpus while ``REPRO_FAULTS`` kills it at a chosen
write-path site, and the parent asserts the repository always reopens
to a *consistent prefix* of the ingest order (everything committed is
visible, nothing never-intended is) whose search results are
bit-identical to a scratch repository holding exactly the visible
schemas. The **degradation mode** in process: injected ENOSPC turns
the repository read-only (ingest raises, search keeps answering). The
**serving self-healing** over a real socket: an overloaded service
answers 503 with a jittered ``Retry-After`` while ``/health`` stays
green, a search failing midway is a named 5xx (never a partial 200),
disk-full maps to 507 and clears with the fault, and SIGTERM drains
and flushes the daemon. ``repro verify`` reports what an open would
recover without changing a file.

The sweep seed is taken from an ambient ``REPRO_FAULTS=seed=N`` (a
rule-less plan never fires in this parent process) so CI can run the
whole module under several seeds — see the ``chaos`` job.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

import fault_driver
from repro import SchemaRepository, faults
from repro.cli import main as cli_main
from repro.config import CupidConfig
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.exceptions import RepositoryReadOnlyError
from repro.io.json_io import schema_to_dict
from repro.repository.durability import atomic_write_json
from repro.serving import MatchHTTPServer, MatchService

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
DRIVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "fault_driver.py")

#: The sweep seed: CI's chaos job exports ``REPRO_FAULTS=seed=N`` (no
#: rules, so nothing fires here) and every subprocess spec below
#: inherits it — one knob re-randomizes the corpus AND the corrupt
#: offsets.
SWEEP_SEED = faults.ambient_seed() or 0
CORPUS_SEED = 3 + SWEEP_SEED


@pytest.fixture(autouse=True)
def _restore_ambient_plan():
    """Tests arm plans freely; whatever was ambient comes back."""
    before = faults._PLAN
    yield
    faults._PLAN = before


def _corpus(n=4, size=12, seed=None):
    generator = SchemaGenerator(seed=CORPUS_SEED if seed is None else seed)
    return [
        generator.generate(
            name=f"fault{i}", n_leaves=size, name_repetition=0.5
        )
        for i in range(n)
    ]


def _query_for(schema, seed=97):
    perturbed, _ = SchemaGenerator(seed=seed).perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return perturbed


def _mapping_signature(result):
    return sorted(
        (e.source_path, e.target_path, e.similarity)
        for e in result.leaf_mapping
    )


def _search_signature(search):
    return [
        (m.schema_id, m.score, _mapping_signature(m.result))
        for m in search
    ]


def _subprocess_env(spec=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    if spec is None:
        env.pop("REPRO_FAULTS", None)
    else:
        env["REPRO_FAULTS"] = f"seed={SWEEP_SEED};{spec}"
    return env


# ----------------------------------------------------------------------
# The fault plan itself
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_grammar(self):
        plan = faults.parse_spec(
            "seed=7; repo.artifact:kill@2 ;repo.manifest:oserror@*;"
            "serve.execute:delay@1,4"
        )
        assert plan.seed == 7
        assert plan.rules["repo.artifact"].hits == frozenset({2})
        assert plan.rules["repo.manifest"].hits is None
        assert plan.rules["serve.execute"].hits == frozenset({1, 4})

    @pytest.mark.parametrize("bad", [
        "nonsense",
        "site:not-an-action",
        "site:kill@0",
        "site:kill@x",
        "seed=x",
        "site:kill@2;site:oserror",  # duplicate site
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_spec(bad)

    def test_hits_count_invocations(self):
        faults.arm(faults.parse_spec("unit.site:oserror@2"))
        faults.check("unit.site")  # first invocation passes
        with pytest.raises(OSError):
            faults.check("unit.site")
        faults.check("unit.site")  # and the third passes again

    def test_enospc_carries_errno(self):
        import errno

        faults.arm(faults.parse_spec("unit.site:enospc@*"))
        with pytest.raises(OSError) as caught:
            faults.check("unit.site")
        assert caught.value.errno == errno.ENOSPC

    def test_seed_only_plan_never_fires(self):
        faults.arm(faults.parse_spec("seed=9"))
        assert faults.ambient_seed() == 9
        for _ in range(8):
            faults.check("repo.manifest")
            assert faults.action("repo.artifact") is None

    def test_unarmed_sites_are_free(self):
        faults.disarm()
        assert not faults.armed()
        assert faults.action("repo.manifest") is None
        faults.check("repo.artifact")

    def test_corrupt_offsets_are_seed_deterministic(self):
        a = faults.FaultPlan(seed=11)
        b = faults.FaultPlan(seed=11)
        assert [a.corrupt_offset(100) for _ in range(5)] == [
            b.corrupt_offset(100) for _ in range(5)
        ]

    def test_corrupt_action_flips_exactly_one_byte(self, tmp_path):
        faults.arm(faults.parse_spec("seed=5;unit.write:corrupt@1"))
        path = str(tmp_path / "f.json")
        atomic_write_json(path, {"a": 1}, site="unit.write")
        expected = (
            json.dumps({"a": 1}, indent=1, sort_keys=True) + "\n"
        ).encode("utf-8")
        with open(path, "rb") as handle:
            blob = handle.read()
        assert len(blob) == len(expected)
        diffs = [
            i for i, (x, y) in enumerate(zip(blob, expected)) if x != y
        ]
        assert len(diffs) == 1


# ----------------------------------------------------------------------
# The crash sweep (acceptance criterion)
# ----------------------------------------------------------------------

#: Each spec names one crash point in the subprocess's timeline (baseline
#: save, 5× [artifact → publish], search). The hit numbers are chosen
#: against that timeline — e.g. ``repo.manifest`` hit 3 is the second
#: post-ingest publish. ``kill`` dies before any bytes, ``kill_after``
#: right after the rename, ``torn`` publishes half the payload under
#: the final name first. ``corrupt`` (no kill) lets the subprocess
#: finish — ingest cached the schema in memory — and plants bit rot in a
#: published artifact for ``repro verify`` to catch.
CRASH_SPECS = [
    "repo.artifact:kill@2",
    "repo.artifact:kill_after@2",
    "repo.artifact:torn@3",
    "repo.manifest:kill@3",
    "repo.manifest:kill_after@5",
]
CORRUPTION_SPECS = ["repo.artifact:corrupt@2"]


def _run_driver(tmp_path, spec):
    root = str(tmp_path / "crash-repo")
    proc = subprocess.run(
        [sys.executable, DRIVER, root, str(CORPUS_SEED)],
        env=_subprocess_env(spec),
        capture_output=True,
        text=True,
        timeout=240,
    )
    return root, proc


def _intended(stdout):
    """The ids the subprocess announced, in ingest order."""
    return [
        line.split()[1] for line in stdout.splitlines()
        if line.startswith("intent ")
    ]


def _assert_recovers_consistently(root, stdout, tmp_path):
    """The sweep's invariant: reopen, bound the corpus, check parity.

    committed ⊆ visible ⊆ intended, and the reopened repository
    answers searches bit-identically to a scratch repository holding
    exactly the visible schemas. One save then finishes the recovery:
    the audit comes back clean, and the artifact directory holds
    exactly the catalogued schemas (a rolled-back file is gone).
    """
    lines = stdout.splitlines()
    intended = _intended(stdout)
    committed = {l.split()[1] for l in lines if l.startswith("committed ")}
    schemas = fault_driver.corpus(CORPUS_SEED)
    by_id = {fault_driver.expected_id(s): s for s in schemas}
    assert set(intended) <= set(by_id)

    repo = SchemaRepository.open(root)
    visible = set(repo.schema_ids())
    assert committed <= visible, (
        f"published schemas vanished: {sorted(committed - visible)}"
    )
    assert visible <= set(intended), (
        f"never-intended schemas appeared: "
        f"{sorted(visible - set(intended))}"
    )

    if visible:
        query = _query_for(schemas[0])
        got = _search_signature(repo.search(query, k=3))
        scratch = SchemaRepository(str(tmp_path / "scratch-repo"))
        for schema_id in intended:
            if schema_id in visible:
                scratch.ingest(by_id[schema_id])
        scratch.save()
        expected = _search_signature(scratch.search(query, k=3))
        assert got == expected, "recovered corpus lost search parity"
        scratch.close()

    repo.save()
    assert repo.audit() == []
    assert sorted(os.listdir(os.path.join(root, "schemas"))) == sorted(
        f"{schema_id}.json" for schema_id in repo.schema_ids()
    )
    repo.close()
    return repo


class TestCrashSweep:
    @pytest.mark.parametrize("spec", CRASH_SPECS)
    def test_killed_writer_leaves_consistent_repository(
        self, tmp_path, spec
    ):
        root, proc = _run_driver(tmp_path, spec)
        assert proc.returncode == faults.KILL_EXIT_CODE, (
            f"driver under {spec!r} should die at the injected site "
            f"(rc={proc.returncode}, stderr={proc.stderr[-500:]})"
        )
        assert "done" not in proc.stdout
        _assert_recovers_consistently(root, proc.stdout, tmp_path)

    @pytest.mark.parametrize("spec", CORRUPTION_SPECS)
    def test_corrupted_artifact_fails_verify(self, tmp_path, capsys, spec):
        """Bit rot in a published artifact: every schema stays visible,
        and ``repro verify`` exits 1 naming exactly the damaged id
        while every other id verifies."""
        root, proc = _run_driver(tmp_path, spec)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.splitlines()[-1] == "done"
        hit = int(spec.rsplit("@", 1)[1])
        victim = fault_driver.expected_id(
            fault_driver.corpus(CORPUS_SEED)[hit - 1]
        )
        capsys.readouterr()
        assert cli_main(["verify", "--repo", root]) == 1
        problems = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("PROBLEM:")
        ]
        assert len(problems) == 1 and victim in problems[0], problems
        repo = SchemaRepository.open(root)
        assert len(repo) == fault_driver.CORPUS_SIZE
        assert repo.audit() == []
        for schema_id in repo.schema_ids():
            if schema_id != victim:
                repo.verify(schema_id)

    def test_no_faults_runs_clean(self, tmp_path):
        root, proc = _run_driver(tmp_path, None)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.splitlines()[-1] == "done"
        repo = SchemaRepository.open(root)
        assert len(repo) == fault_driver.CORPUS_SIZE
        assert repo.audit() == []
        info = repo.recovery_info()
        assert info["recovered_ingests"] == 0
        assert info["rolled_back_ingests"] == 0

    def test_kill_after_artifact_recovers_the_ingest(self, tmp_path):
        """Recovery's completion side, pinned: dying right after the
        artifact rename (manifest never written) must *finish* the
        ingest on reopen, not roll it back."""
        root, proc = _run_driver(tmp_path, "repo.artifact:kill_after@2")
        assert proc.returncode == faults.KILL_EXIT_CODE
        repo = SchemaRepository.open(root)
        assert repo.recovery_info()["recovered_ingests"] == 1
        assert len(repo) == 2

    def test_kill_during_artifact_rolls_the_ingest_back(self, tmp_path):
        """Dying before the artifact's first byte: the ingest is
        invisible and left no file, so there is nothing to recover or
        roll back."""
        root, proc = _run_driver(tmp_path, "repo.artifact:kill@2")
        assert proc.returncode == faults.KILL_EXIT_CODE
        killed = _intended(proc.stdout)[-1]
        repo = SchemaRepository.open(root)
        assert len(repo) == 1 and killed not in repo
        assert not os.path.exists(
            os.path.join(root, "schemas", f"{killed}.json")
        )
        info = repo.recovery_info()
        assert info["recovered_ingests"] == 0
        assert info["rolled_back_ingests"] == 0

    def test_torn_artifact_is_rolled_back(self, tmp_path):
        """A torn artifact does not hash back to its id: the reopened
        repository does not show the ingest, keeps the file until a
        save (opening writes nothing), and the save deletes it."""
        root, proc = _run_driver(tmp_path, "repo.artifact:torn@3")
        assert proc.returncode == faults.KILL_EXIT_CODE
        torn = _intended(proc.stdout)[-1]
        torn_path = os.path.join(root, "schemas", f"{torn}.json")
        repo = SchemaRepository.open(root)
        assert len(repo) == 2 and torn not in repo
        assert repo.recovery_info()["rolled_back_ingests"] == 1
        assert os.path.exists(torn_path)
        repo.save()
        assert not os.path.exists(torn_path)
        assert SchemaRepository.open(root).recovery_info()[
            "rolled_back_ingests"
        ] == 0


# ----------------------------------------------------------------------
# Degradation modes (in process)
# ----------------------------------------------------------------------


class TestReadOnlyDegradation:
    def test_enospc_degrades_writes_keeps_reads(self, tmp_path):
        schemas = _corpus(2)
        repo = SchemaRepository(str(tmp_path / "repo"))
        repo.ingest(schemas[0])
        repo.save()
        faults.arm(faults.parse_spec("repo.artifact:enospc@*"))
        with pytest.raises(RepositoryReadOnlyError):
            repo.ingest(schemas[1])
        assert repo.read_only
        info = repo.recovery_info()
        assert info["read_only"] and info["write_failures"] >= 1
        assert "ENOSPC" in info["read_only_reason"]
        # Reads are untouched by the degradation.
        assert len(repo.search(_query_for(schemas[0]), k=1)) == 1
        # Non-sticky: the moment a durable write succeeds the flag
        # clears — no restart, no explicit reset call.
        faults.disarm()
        repo.ingest(schemas[1])
        assert not repo.read_only
        repo.save()
        assert len(repo) == 2


# ----------------------------------------------------------------------
# Self-healing serving (HTTP, over a real socket)
# ----------------------------------------------------------------------


def _http(port, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _http_error(port, path, payload=None):
    try:
        _http(port, path, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers
    pytest.fail(f"{path} unexpectedly succeeded")


class _Server:
    """MatchHTTPServer on a background thread (context manager)."""

    def __init__(self, repository, **service_kwargs):
        self.service = MatchService(repository, **service_kwargs)
        self.httpd = MatchHTTPServer(("127.0.0.1", 0), self.service)
        self.port = self.httpd.port
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.httpd.shutdown()
        self.httpd.server_close()
        faults.disarm()  # never let a plan leak into close's flushes
        self.service.close()


class TestSelfHealingHTTP:
    def test_overload_surfaces_503_then_recovers(self, tmp_path):
        """A request the service cannot admit is a named 503 with a
        jittered Retry-After while /health stays green; once the
        admitted request finishes, searches answer 200 again."""
        repo = SchemaRepository(str(tmp_path / "repo"))
        schemas = _corpus(3, size=16)
        for schema in schemas:
            repo.ingest(schema)
        repo.save()
        body = {
            "schema": schema_to_dict(_query_for(schemas[0])),
            "k": 2,
        }
        release = threading.Event()
        with _Server(repo, queue_depth=1) as server:
            # Park a request on the only admission slot so the next
            # one is rejected at the door.
            blocker = server.service.submit(
                "search", lambda session, deadline: release.wait(60)
            )
            try:
                status, payload, headers = _http_error(
                    server.port, "/search", body
                )
                health = _http(server.port, "/health")
            finally:
                release.set()
            blocker.result(timeout=60)
            assert status == 503
            assert payload["error"] == "ServiceOverloadedError"
            retry_after = headers.get("Retry-After")
            base = repo.config.serving_retry_after_s
            assert retry_after is not None
            assert base <= int(retry_after) <= 2 * base + 1
            assert health["status"] == "ok"

            recovered = _http(server.port, "/search", body)
            assert len(recovered["matches"]) == 2

    def test_disk_full_degrades_ingest_keeps_search(self, tmp_path):
        repo = SchemaRepository(str(tmp_path / "repo"))
        schemas = _corpus(4)
        for schema in schemas[:3]:
            repo.ingest(schema)
        repo.save()
        search_body = {
            "schema": schema_to_dict(_query_for(schemas[0])),
            "k": 2,
        }
        ingest_body = {
            "schemas": [{"schema": schema_to_dict(schemas[3])}],
        }
        with _Server(repo, queue_depth=8) as server:
            faults.arm(faults.parse_spec("repo.artifact:enospc@*"))
            status, payload, _ = _http_error(
                server.port, "/ingest", ingest_body
            )
            assert status == 507
            assert payload["error"] == "RepositoryReadOnlyError"
            # Reads keep working; liveness stays green but advertises
            # the degradation.
            assert len(
                _http(server.port, "/search", search_body)["matches"]
            ) == 2
            health = _http(server.port, "/health")
            assert health["status"] == "ok"
            assert health["read_only"] is True

            faults.disarm()
            ingested = _http(server.port, "/ingest", ingest_body)
            assert len(ingested["ids"]) == 1
            assert _http(server.port, "/health")["read_only"] is False

    def test_search_never_returns_partial_results(self, tmp_path):
        """A failing request is a named 5xx, not a 200 with fewer
        matches — an artifact restore failing after an earlier
        candidate already matched must never leak a truncated result
        set."""
        path = str(tmp_path / "repo")
        schemas = _corpus(3, size=16)
        with SchemaRepository(path) as repo:
            for schema in schemas:
                repo.ingest(schema)
        body = {
            "schema": schema_to_dict(_query_for(schemas[0])),
            "k": 3,
        }
        # Freshly reopened: no artifact is restored yet, so a search
        # restores its candidates one by one as it matches them.
        repo = SchemaRepository.open(path)
        with _Server(repo, queue_depth=8) as server:
            # Restore 1 succeeds (and stays cached); restores 2-4 fail,
            # so each search dies after its first candidate match.
            faults.arm(faults.parse_spec("artifact.restore:oserror@2,3,4"))
            for _ in range(3):
                status, payload, _ = _http_error(
                    server.port, "/search", body
                )
                assert status == 500
                assert payload["error"] == "OSError"
                assert "matches" not in payload
            assert repo.cache_info()["artifact_loads"] == 1
            faults.disarm()
            assert len(_http(server.port, "/search", body)["matches"]) == 3


class TestGracefulShutdown:
    def test_sigterm_drains_and_flushes(self, tmp_path):
        path = str(tmp_path / "repo")
        schemas = _corpus(3)
        with SchemaRepository(path) as repo:
            for schema in schemas[:2]:
                repo.ingest(schema)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--repo", path, "--port", "0",
            ],
            env=_subprocess_env(None),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            announce = proc.stderr.readline()
            matched = re.search(r"http://[^:]+:(\d+)", announce)
            assert matched, f"no announce line (got {announce!r})"
            port = int(matched.group(1))
            ingested = _http(port, "/ingest", {
                "schemas": [{"schema": schema_to_dict(schemas[2])}],
            })
            assert len(ingested["ids"]) == 1
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert returncode == 0
        # The drained daemon flushed everything: the ingest done over
        # HTTP survives a cold reopen, the layout audits clean, and the
        # directory holds the manifest and the artifacts only.
        reopened = SchemaRepository.open(path)
        assert len(reopened) == 3
        assert reopened.audit() == []
        assert sorted(os.listdir(path)) == ["repository.json", "schemas"]


# ----------------------------------------------------------------------
# CLI: repro verify, recovery counters in --stats
# ----------------------------------------------------------------------


class TestVerifyCLI:
    def _build(self, tmp_path):
        path = str(tmp_path / "repo")
        with SchemaRepository(path) as repo:
            for schema in _corpus(3):
                repo.ingest(schema)
        return path

    def test_clean_repository_verifies(self, tmp_path, capsys):
        path = self._build(tmp_path)
        assert cli_main(["verify", "--repo", path]) == 0
        out = capsys.readouterr().out
        assert "0 problem(s)" in out
        assert "3 artifact(s) re-verified" in out

    def test_missing_artifact_fails_the_audit(self, tmp_path, capsys):
        path = self._build(tmp_path)
        with SchemaRepository.open(path) as repo:
            victim = repo.schema_ids()[0]
        os.remove(os.path.join(path, "schemas", f"{victim}.json"))
        assert cli_main(["verify", "--repo", path, "--quick"]) == 1
        assert "missing" in capsys.readouterr().err

    def test_search_stats_surface_recovery_counters(
        self, tmp_path, capsys
    ):
        path = self._build(tmp_path)
        schemas = _corpus(3)
        query_file = str(tmp_path / "query.json")
        with open(query_file, "w") as handle:
            json.dump(schema_to_dict(_query_for(schemas[0])), handle)
        assert cli_main([
            "search", query_file, "--repo", path, "-k", "1", "--stats",
        ]) == 0
        err = capsys.readouterr().err
        assert "# recovery" in err
        for key in ("index_rebuilds", "recovered_ingests",
                    "rolled_back_ingests", "write_failures", "read_only"):
            assert f"{key}:" in err, key
        assert "segment_fallbacks" not in err
        assert "pending_intents" not in err

    def test_verify_changes_nothing_on_disk(self, tmp_path, capsys):
        """``repro verify`` is a pure audit. A repository a crash left
        with one complete and one torn uncatalogued artifact, and the
        write-ahead intent record an earlier build kept for them,
        verifies clean and reports the ingest an open recovers and the
        one it rolls back, with every file left byte for byte. Only a
        save acts: the torn file goes, the complete one is
        catalogued."""
        path = self._build(tmp_path)
        scratch = SchemaRepository(str(tmp_path / "scratch"))
        complete, torn = [scratch.ingest(s) for s in _corpus(5)[3:]]
        pending = []
        for schema_id in (complete, torn):
            with open(scratch._artifact_path(schema_id), "rb") as handle:
                blob = handle.read()
            if schema_id == torn:
                blob = blob[: len(blob) // 2]
            artifact = os.path.join(path, "schemas", f"{schema_id}.json")
            with open(artifact, "wb") as handle:
                handle.write(blob)
            meta = scratch.describe(schema_id)
            profile = meta.pop("profile")
            pending.append(
                {"schema_id": schema_id, "meta": meta, "profile": profile}
            )
        atomic_write_json(
            os.path.join(path, "ingest.intent.json"),
            {"format_version": 1, "pending": pending},
        )

        def snapshot():
            files = {}
            for folder, _, names in os.walk(path):
                for name in names:
                    with open(os.path.join(folder, name), "rb") as handle:
                        files[os.path.join(folder, name)] = handle.read()
            return files

        before = snapshot()
        capsys.readouterr()
        assert cli_main(["verify", "--repo", path]) == 0
        out = capsys.readouterr().out
        assert "4 artifact(s) re-verified" in out
        assert "recovered_ingests: 1" in out
        assert "rolled_back_ingests: 1" in out
        assert snapshot() == before

        SchemaRepository.open(path).save()
        assert not os.path.exists(
            os.path.join(path, "schemas", f"{torn}.json")
        )
        with open(os.path.join(path, "repository.json")) as handle:
            catalog = json.load(handle)["schemas"]
        assert torn not in catalog
        assert catalog[complete] == scratch.describe(complete)


class TestRetryAfterJitterSeed:
    """``serving_retry_after_seed`` makes the 503 Retry-After jitter a
    deterministic sequence (fault drills, replayable chaos runs);
    ``None`` — the default — keeps the entropy-seeded behaviour."""

    def _sequence(self, tmp_path, name, seed, n=8):
        config = CupidConfig().replace(serving_retry_after_seed=seed)
        repo = SchemaRepository(str(tmp_path / name), config=config)
        service = MatchService(repo)
        httpd = MatchHTTPServer(("127.0.0.1", 0), service)
        try:
            return [httpd.retry_after_s() for _ in range(n)]
        finally:
            httpd.server_close()
            service.close()

    def test_seeded_jitter_is_deterministic(self, tmp_path):
        first = self._sequence(tmp_path, "a", seed=1234)
        second = self._sequence(tmp_path, "b", seed=1234)
        assert first == second
        base = CupidConfig().serving_retry_after_s
        assert all(base <= value <= 2 * base + 1 for value in first)

    def test_unseeded_jitter_stays_in_range(self, tmp_path):
        values = self._sequence(tmp_path, "c", seed=None)
        base = CupidConfig().serving_retry_after_s
        assert all(base <= value <= 2 * base + 1 for value in values)

"""Deterministic fault injection for the durability and self-healing
tests.

A long-lived match service dies in ways unit tests never exercise by
accident: the process killed between an artifact write and the
manifest publish, an artifact torn mid-write, a disk returning
``ENOSPC``. This module makes those failures *reproducible*: a
process-wide :class:`FaultPlan` names injection **sites** threaded
through the repository and serving hot paths, and each armed rule
fires a chosen failure on chosen invocations of its site.

Sites currently wired (grep for the literal string to find the code)::

    repo.manifest       manifest write (repository.json: the catalog
                        with its index profiles, the publish point)
    repo.artifact       schema artifact write
    artifact.serialize  artifact payload serialization (ingest)
    artifact.restore    artifact payload loading (repository load and
                        crash recovery on open)
    serve.execute       service request execution (compute thread)

Actions::

    oserror     raise OSError(EIO) at the site
    enospc      raise OSError(ENOSPC) — the disk-full probe
    delay       sleep 50 ms (races / deadline pressure)
    kill        os._exit(KILL_EXIT_CODE) at the site, before any bytes
    torn        publish HALF the payload bytes, then kill (write sites)
    kill_after  complete the write (rename + fsync), then kill
    corrupt     flip one payload byte after the rename (write sites)

The plan is **seeded and env-configurable**: ``REPRO_FAULTS`` is
parsed at import and armed automatically, so a subprocess inherits its
crash schedule through the environment — the transport the crash-sweep
tests (``tests/test_faults.py``) use. Spec grammar::

    REPRO_FAULTS="seed=7;repo.artifact:kill@2;repo.manifest:oserror@*"

``site:action@hits`` clauses name which invocations fire: ``@3`` the
third call ever, ``@1,4`` a list, ``@*`` every call; omitted = the
first. ``seed=N`` feeds the plan's RNG (corrupt-byte positions) and is
also readable via :func:`ambient_seed` — a plan carrying *only* a seed
has no rules and never fires, which is how a test parent process safely
passes a sweep seed through the same variable its subprocesses use.

When no plan is armed, :func:`check` / :func:`action` return on a
single ``None`` test — the hot paths pay one predictable branch.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from typing import Dict, List, Optional

#: Exit status of injected kills — distinct from Python tracebacks (1)
#: and recognizable as SIGKILL-style.
KILL_EXIT_CODE = 137

#: Seconds the ``delay`` action sleeps.
DELAY_SECONDS = 0.05

#: Actions that shape a write in progress rather than firing at the
#: site entry; :func:`action` returns them for the writer to apply.
WRITE_SHAPING_ACTIONS = frozenset({"torn", "kill_after", "corrupt"})

ACTIONS = WRITE_SHAPING_ACTIONS | {"oserror", "enospc", "delay", "kill"}


class FaultSpecError(ValueError):
    """Raised for an unparseable ``REPRO_FAULTS`` spec."""


class FaultRule:
    """One ``site:action@hits`` clause with its invocation counter."""

    def __init__(
        self, site: str, fault: str, hits: Optional[frozenset] = frozenset({1})
    ) -> None:
        if fault not in ACTIONS:
            raise FaultSpecError(
                f"unknown fault action {fault!r} for site {site!r} "
                f"(expected one of {sorted(ACTIONS)})"
            )
        self.site = site
        self.fault = fault
        #: ``None`` fires on every invocation; otherwise the 1-based
        #: invocation numbers that fire.
        self.hits = hits
        self.count = 0

    def should_fire(self) -> bool:
        """Count one invocation of the site; True if this one fires."""
        self.count += 1
        return self.hits is None or self.count in self.hits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hits = "*" if self.hits is None else sorted(self.hits)
        return f"FaultRule({self.site}:{self.fault}@{hits})"


class FaultPlan:
    """A seeded set of rules, at most one per site."""

    def __init__(self, seed: int = 0, rules: Optional[List[FaultRule]] = None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: Dict[str, FaultRule] = {}
        self._lock = threading.Lock()
        for rule in rules or []:
            self.add(rule)

    def add(self, rule: FaultRule) -> "FaultPlan":
        if rule.site in self.rules:
            raise FaultSpecError(
                f"duplicate fault rule for site {rule.site!r}"
            )
        self.rules[rule.site] = rule
        return self

    def fire(self, site: str) -> Optional[str]:
        """Count an invocation of ``site``; execute or return its fault.

        Immediate actions (``oserror``/``enospc``/``delay``/``kill``)
        happen right here; write-shaping ones are returned for the
        caller to apply.
        """
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            fires = rule.should_fire()
        if not fires:
            return None
        fault = rule.fault
        if fault in WRITE_SHAPING_ACTIONS:
            return fault
        if fault == "delay":
            time.sleep(DELAY_SECONDS)
            return None
        if fault == "kill":
            hard_kill()
        if fault == "enospc":
            raise OSError(
                errno.ENOSPC,
                f"injected ENOSPC at fault site {site!r}",
            )
        raise OSError(errno.EIO, f"injected I/O error at fault site {site!r}")

    def corrupt_offset(self, length: int) -> int:
        """Seed-deterministic byte position for the ``corrupt`` action."""
        with self._lock:
            return self.rng.randrange(length) if length > 0 else 0


def hard_kill() -> "None":
    """Die the way a power cut does: no atexit, no finally blocks."""
    os._exit(KILL_EXIT_CODE)


def parse_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` string into a :class:`FaultPlan`."""
    seed = 0
    rules: List[FaultRule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad seed clause {clause!r} (expected seed=<int>)"
                ) from exc
            continue
        site, sep, rest = clause.partition(":")
        if not sep or not site or not rest:
            raise FaultSpecError(
                f"bad fault clause {clause!r} "
                "(expected site:action[@hits] or seed=N)"
            )
        fault, sep, hits_spec = rest.partition("@")
        hits: Optional[frozenset] = frozenset({1})
        if sep:
            if hits_spec == "*":
                hits = None
            else:
                try:
                    hits = frozenset(
                        int(part) for part in hits_spec.split(",") if part
                    )
                except ValueError as exc:
                    raise FaultSpecError(
                        f"bad hits spec {hits_spec!r} in {clause!r} "
                        "(expected N, N,M,..., or *)"
                    ) from exc
                if not hits or any(n < 1 for n in hits):
                    raise FaultSpecError(
                        f"hits must be 1-based positives in {clause!r}"
                    )
        rules.append(FaultRule(site.strip(), fault.strip(), hits))
    return FaultPlan(seed=seed, rules=rules)


# ----------------------------------------------------------------------
# Process-wide arming
# ----------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide fault schedule."""
    global _PLAN
    _PLAN = plan


def disarm() -> None:
    """Remove the armed plan; every site returns to zero overhead."""
    global _PLAN
    _PLAN = None


def armed() -> bool:
    return _PLAN is not None


def ambient_seed() -> Optional[int]:
    """The armed plan's seed, or ``None`` — how a sweep parent reads
    the seed it was handed via ``REPRO_FAULTS=seed=N``."""
    plan = _PLAN
    return plan.seed if plan is not None else None


def action(site: str) -> Optional[str]:
    """Fire ``site``; returns a write-shaping action name or ``None``.

    Immediate faults raise/kill/sleep inside this call. Callers that
    cannot apply write-shaping actions use :func:`check` instead.
    """
    plan = _PLAN
    if plan is None:
        return None
    return plan.fire(site)


def check(site: str) -> None:
    """Fire ``site`` for its immediate faults only.

    Write-shaping actions are ignored here — a site checked through
    this helper has no write to shape.
    """
    plan = _PLAN
    if plan is None:
        return
    plan.fire(site)


def corrupt_offset(length: int) -> int:
    plan = _PLAN
    if plan is None:  # pragma: no cover - only called while armed
        return 0
    return plan.corrupt_offset(length)


def _bootstrap() -> None:
    """Arm from ``REPRO_FAULTS`` at import — the subprocess transport."""
    spec = os.environ.get("REPRO_FAULTS")
    if spec:
        arm(parse_spec(spec))


_bootstrap()

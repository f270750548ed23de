"""Exception hierarchy for the Cupid reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. The hierarchy mirrors the pipeline stages: schema
construction, importing, tree expansion, matching, and evaluation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """Raised when a schema graph is malformed or violates an invariant.

    Examples: an element contained by two parents, a relationship whose
    endpoints belong to different schemas, or a dangling reference.
    """


class DuplicateElementError(SchemaError):
    """Raised when an element id is registered twice in one schema."""


class UnknownElementError(SchemaError):
    """Raised when an operation names an element the schema does not hold."""


class CyclicSchemaError(SchemaError):
    """Raised when containment/IsDerivedFrom relationships form a cycle.

    The paper (Section 8.2) explicitly defers recursive type definitions
    to future work; schema-tree construction fails on them, and we
    surface that failure as this exception.
    """


class ImportError_(ReproError):
    """Base class for schema importer failures (SQL DDL, XML, OO DSL)."""


class SqlDdlParseError(ImportError_):
    """Raised when the mini SQL DDL parser cannot parse its input.

    Carries ``line`` (1-based) and ``message`` describing the problem.
    """

    def __init__(self, message: str, line: int = 0) -> None:
        self.line = line
        self.message = message
        suffix = f" (line {line})" if line else ""
        super().__init__(f"{message}{suffix}")


class XmlSchemaParseError(ImportError_):
    """Raised when the simplified XML schema importer rejects its input."""


class OoModelParseError(ImportError_):
    """Raised when the OO class-definition DSL parser rejects its input."""


class MatchError(ReproError):
    """Base class for failures during the matching pipeline itself."""


class ConfigError(MatchError):
    """Raised when a :class:`repro.config.CupidConfig` is inconsistent,

    e.g. ``thhigh`` not greater than ``thaccept`` as Table 1 requires.
    """


class MappingError(ReproError):
    """Raised for ill-formed mappings (unknown elements, bad confidence)."""


class RepositoryError(ReproError):
    """Raised when a schema repository is unusable or inconsistent.

    Examples: a repository directory whose manifest is missing or
    corrupt, an artifact file written by an incompatible format
    version, or opening a repository under a config/thesaurus that
    does not match the one its artifacts were prepared with.
    """


class RepositoryReadOnlyError(RepositoryError):
    """Raised when a durable repository write fails (disk full,
    read-only mount) and the repository degrades to read-only service.

    Search and load keep working — they write no repository file — but
    ingest and save surface this error until a later durable write
    succeeds. The flag is not sticky: every write re-probes the
    disk, so clearing the condition clears the degradation. Maps to
    HTTP 507 (Insufficient Storage) in the daemon.
    """


class ArtifactError(RepositoryError):
    """Raised when a catalogued schema's artifact file cannot be read
    or loaded: missing, torn, corrupt, or of another format version.

    The catalog names the schema, so the caller asked for nothing
    missing: the repository itself is damaged. Maps to HTTP 500 in the
    daemon, where an unknown schema id (plain :class:`RepositoryError`)
    is a 404.
    """


class ServingError(ReproError):
    """Base class for the serving subsystem's request-level failures.

    Every error a :class:`repro.serving.MatchService` request can
    surface derives from this, so a front end (the HTTP daemon, an
    embedding application) can map the taxonomy to its own status
    codes without string-matching messages.
    """


class ServiceClosedError(ServingError):
    """Raised when a request reaches a service that has been closed
    (or is draining for shutdown)."""


class ServiceOverloadedError(ServingError):
    """Raised when the service's bounded request queue is full.

    Backpressure, not buffering: a saturated service rejects new work
    immediately so callers can shed load or retry elsewhere instead of
    stacking unbounded latency.
    """


class RequestTimeoutError(ServingError):
    """Raised when a request exceeds its deadline.

    The deadline is cooperative: long operations (candidate matching
    inside a search) check it between units of work, so a timed-out
    request also releases the service's compute thread promptly.
    """


class BadRequestError(ServingError):
    """Raised for malformed service requests: unparseable JSON bodies,
    missing required fields, unknown schema formats, or out-of-range
    parameters. Maps to HTTP 400 in the daemon."""

"""Exception hierarchy shared across the PIER reproduction.

Every error raised by the library derives from :class:`PierError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing subsystem-specific problems (network, DHT, query processing,
SQL parsing) when they need to.
"""

from __future__ import annotations


class PierError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class SimulationError(PierError):
    """Raised when the simulator (or any timer service) is used incorrectly."""


class NetworkError(PierError):
    """Raised for invalid network operations (unknown node, dead link...)."""


class GatewayError(NetworkError):
    """A gateway RPC was rejected with a structured error frame.

    ``code`` is the machine-readable error class carried in the frame
    (``"not_ready"``, ``"unknown_namespace"``, ``"internal"``, ...);
    subclasses pin it so clients can catch the specific condition.
    """

    code = "internal"

    def __init__(self, message: str, code: str = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class NodeNotReadyError(GatewayError):
    """An operation reached a node whose overlay is still assembling."""

    code = "not_ready"


class UnknownNamespaceError(GatewayError):
    """A submitted query references a namespace no cluster node has data for."""

    code = "unknown_namespace"


class DHTError(PierError):
    """Base class for DHT-layer failures."""


class RoutingError(DHTError):
    """Raised when a key cannot be routed to an owner node."""


class StorageError(DHTError):
    """Raised by the storage manager for invalid store/retrieve operations."""


class SketchError(PierError):
    """Raised for invalid sketch configurations, payloads or merges."""


class QueryError(PierError):
    """Base class for query-processing failures."""


class PlanError(QueryError):
    """Raised when a query plan is malformed or cannot be instantiated."""


class SchemaError(QueryError):
    """Raised when tuples do not conform to their declared schema."""


class ExpressionError(QueryError):
    """Raised when an expression references unknown columns or types."""


class SQLSyntaxError(QueryError):
    """Raised by the SQL front end on malformed query text."""


class CatalogError(QueryError):
    """Raised when catalog lookups fail or definitions conflict."""


class WorkloadError(PierError):
    """Raised when a synthetic workload is configured inconsistently."""


class ExperimentError(PierError):
    """Raised by the experiment harness for invalid configurations."""

"""Outside-in tracing: spans around each layer's public entry points.

Nothing in ``src/`` knows it is being traced.  :class:`Tracer` rebinds, on
the *classes* and before a deployment is built, the public seams between
layers — handler registration, timers, the routing/Provider/storage calls,
the client and gateway entry points — so every crossing from one layer into
another opens a span.  A span's *self time* is its duration minus the time
its child spans cover; spans with no parent are children of the op's root
span (the op's timed regions), whose own self time is the ``client`` layer.
The per-layer shares of one op therefore sum to 1.0 of the root by
construction.

A layer is a module (or a few modules that only make sense together):
callbacks and message handlers are attributed to the module that defined them
(a bound method: its instance's class, so the shared ``RoutingLayer`` batch
handlers count as ``can`` or ``chord``).  A seam that no longer exists is listed in
``Tracer.absent`` and skipped — a rename in ``src/`` must not crash the
benchmark, only show up in the ledger.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every layer the ledger reports a ``<layer>.share`` for.  ``other`` is
#: whatever no rule below claims (harness glue under ``repro.harness``).
LAYERS = ("simulator", "network", "can", "chord", "multicast", "provider",
          "storage", "executor", "sql", "client", "gateway", "other")

#: Defining-module prefix -> layer, first match wins.
MODULE_LAYERS = (
    ("repro.net.simulator", "simulator"),
    ("repro.net.", "network"),
    ("repro.dht.can", "can"),
    ("repro.dht.chord", "chord"),
    ("repro.dht.multicast", "multicast"),
    ("repro.dht.storage", "storage"),
    ("repro.dht.", "provider"),
    ("repro.core.sql", "sql"),
    ("repro.core.costmodel", "sql"),
    ("repro.core.stats", "sql"),
    ("repro.core.", "executor"),
    ("repro.sketches", "executor"),
    ("repro.client", "client"),
    ("repro.remote", "gateway.rpc"),
)

#: What a span can be charged to: the layers, with the gateway split by seam
#: (its RPCs and its pumps are reported apart), and the op's root span last.
SPAN_LAYERS = tuple(layer for layer in LAYERS
                    if layer not in ("gateway", "client")) + (
    "gateway.rpc", "gateway.pump", "client")
#: Index of the root span's layer: what the op does outside every seam is
#: the client driving its cursor.
ROOT = len(SPAN_LAYERS) - 1

Span = Tuple[str, str, float, float, int]  # name, layer, start, end, parent


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


def layer_of_callable(fn: Callable) -> str:
    """The layer whose code ``fn`` runs: its instance's class, else its module."""
    fn = getattr(fn, "func", fn)  # functools.partial
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, types.ModuleType):
        return layer_of_module(type(owner).__module__)
    return layer_of_module(getattr(fn, "__module__", None) or "")


class _EqCallback:
    """A traced callback that still compares equal to the one it wraps.

    ``Provider.off_new_data`` / ``off_multicast`` find the callback to
    remove with ``in`` / ``list.remove``; a plain closure would never match
    and every query would leak its probes while traced.
    """

    __slots__ = ("fn", "call")

    def __init__(self, fn: Callable, call: Callable):
        self.fn = fn
        self.call = call

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.call(*args, **kwargs)

    def __eq__(self, other: object) -> bool:
        return other is self or other == self.fn

    def __hash__(self) -> int:
        return hash(self.fn)


def _fire(fn: Callable, *args: Any) -> Any:
    return fn(*args)


def _is_traced(fn: Callable) -> bool:
    """Whether ``fn`` is already one of :meth:`Tracer._span`'s closures."""
    return getattr(fn, "__code__", None) is _TRACED_CODE


class Tracer:
    """Span recorder plus the class-level patches that feed it.

    The open-span stack is the Python call stack itself: a span saves the
    enclosing span's accumulated child time in a local, zeroes it for
    itself, and on exit adds its own duration back — no frame objects, two
    clock reads and a handful of list updates per span.
    """

    def __init__(self) -> None:
        #: Spans are only recorded inside an op's timed regions.
        self.on = False
        size = len(SPAN_LAYERS)
        #: Self seconds, closed spans, and spans closed directly beneath,
        #: per entry of ``SPAN_LAYERS`` (the last entry is the op's root).
        self.self_s: List[float] = [0.0] * size
        self.closed: List[int] = [0] * size
        self.children: List[int] = [0] * size
        self.counts: Dict[str, float] = defaultdict(float)
        #: Child seconds / layer / span index of the innermost open span.
        self._child_s = 0.0
        self._layer = ROOT
        self._index = -1
        #: Closed spans of the current op, when it is being kept.
        self.spans: Optional[List[Optional[Span]]] = None
        #: The spans of the last op that asked for them (written to disk).
        self.kept_spans: List[Optional[Span]] = []
        self._region_start = 0.0
        self._root_wall = 0.0
        #: What a no-op span costs its own layer and its parent's, in seconds.
        self.costs = (0.0, 0.0)
        #: ``module.Class.attr`` seams that could not be wrapped.
        self.absent: List[str] = []
        self._originals: List[Tuple[type, str, Any]] = []
        #: Defining code object -> layer index of callbacks.
        self._callback_layers: Dict[Any, int] = {}
        self._timers = [self._span(index, f"{layer}.timer", _fire)
                        for index, layer in enumerate(SPAN_LAYERS)]

    # ------------------------------------------------------------ recording

    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call made while tracing is one span."""
        if _is_traced(fn):
            return fn
        return self._span(SPAN_LAYERS.index(layer), name, fn)

    def _span(self, layer: int, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        self_s, closed, children = self.self_s, self.closed, self.children

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.on:
                return fn(*args, **kwargs)
            outer_child, outer_layer = self._child_s, self._layer
            spans = self.spans
            if spans is not None:
                outer_index, index = self._index, len(spans)
                self._index = index
                spans.append(None)  # reserve the slot so parents come first
            self._child_s = 0.0
            self._layer = layer
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_s[layer] += duration - self._child_s
                closed[layer] += 1
                children[outer_layer] += 1
                self._child_s = outer_child + duration
                self._layer = outer_layer
                if spans is not None:
                    self._index = outer_index
                    spans[index] = (name, SPAN_LAYERS[layer], start, end,
                                    outer_index)

        return traced

    def _layer_index(self, fn: Callable) -> int:
        """Index of the layer that defined ``fn``, cached by code object."""
        try:
            code = fn.__func__.__code__  # bound method
        except AttributeError:
            code = getattr(fn, "__code__", None)
        layer = self._callback_layers.get(code)
        if layer is None:
            layer = SPAN_LAYERS.index(layer_of_callable(fn))
            if code is not None:
                self._callback_layers[code] = layer
        return layer

    def callback(self, fn: Optional[Callable],
                 name: Optional[str] = None) -> Optional[Callable]:
        """A callback handed across a seam, attributed to its defining layer."""
        if fn is None or _is_traced(fn):
            return fn
        if name is None:
            target = getattr(fn, "func", fn)  # functools.partial
            name = getattr(target, "__qualname__", None) or type(target).__name__
        return self._span(self._layer_index(fn), name, fn)

    def timer(self, fn: Callable) -> Callable:
        """The shared span a timer callback of ``fn``'s layer fires under.

        Scheduling is the hottest seam — most scheduled deliveries are
        rescheduled before they fire — so nothing is allocated per call:
        the callback rides along as the first argument of a per-layer
        dispatcher (``schedule(delay, dispatcher, fn, *args)``).
        """
        return self._timers[self._layer_index(fn)]

    def count(self, key: str, amount: float = 1) -> None:
        if self.on:
            self.counts[key] += amount

    def span_costs(self, calls: int = 20_000) -> Tuple[float, float]:
        """Seconds one span adds to its own self time, and to its parent's.

        Measured by tracing a no-op: what the clock reads inside an empty
        span is the first cost, what the enclosing loop slows down by beyond
        that is the second.  Only their ratio is used: the ledger spreads
        the run's *measured* tracing overhead over the spans in that ratio,
        so layers crossed by many short spans are not overstated.
        """
        def noop() -> None:
            pass

        def loop(fn: Callable[[], None]) -> None:
            for _ in range(calls):
                fn()

        inner = self._span(0, "noop", noop)
        outer = self._span(1, "loop", loop)
        self.begin_op()
        self.resume()
        start = time.perf_counter()
        loop(noop)
        bare = time.perf_counter() - start
        outer(inner)
        self.pause()
        inside = self.self_s[0] / calls
        outside = max(0.0, self.self_s[1] - bare) / calls
        self.begin_op()
        return inside, outside

    # ------------------------------------------------------------ op bracket

    def begin_op(self, keep_spans: bool = False) -> None:
        """Reset the ledger for one op; tracing starts at :meth:`resume`."""
        for series in (self.self_s, self.closed, self.children):
            series[:] = [0] * len(series)
        self.counts.clear()
        self.spans = [] if keep_spans else None
        self._child_s = self._root_wall = 0.0
        self._layer, self._index = ROOT, -1

    def resume(self) -> None:
        """Enter a timed region of the op."""
        self._region_start = time.perf_counter()
        self.on = True

    def pause(self) -> None:
        """Leave a timed region (oracle reads between regions are not traced)."""
        self.on = False
        self._root_wall += time.perf_counter() - self._region_start

    def end_op(self) -> float:
        """Close the root span; returns its duration (the timed regions)."""
        self.on = False
        self.self_s[ROOT] += self._root_wall - self._child_s
        if self.spans is not None:
            self.kept_spans = self.spans
        return self._root_wall

    # -------------------------------------------------------------- patches

    def install(self) -> None:
        """Rebind the public seams; call before the deployment is built."""
        self.costs = self.span_costs()
        for module, cls, attr, make in SEAMS:
            try:
                owner = getattr(importlib.import_module(module), cls)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}.{cls}.{attr}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, make(self, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------- the seams
#
# Each factory takes ``(tracer, original)`` and returns the replacement
# class attribute.

Factory = Callable[[Tracer, Callable], Callable]


def _one(*_args: Any, **_kwargs: Any) -> int:
    return 1


def _len_of(position: int) -> Callable[..., int]:
    """Counter increment: the length of the ``position``-th call argument."""
    return lambda *args, **_kwargs: len(args[position])


def call(layer: str, name: str, counter: Optional[str] = None,
         amount: Callable[..., int] = _one,
         callback_at: Optional[int] = None) -> Factory:
    """The method call is one span of ``layer``.

    ``counter`` is bumped by ``amount(*args)`` per call (``args`` without
    ``self``); ``callback_at`` names a positional-or-``callback=`` argument
    that becomes a span of its own defining layer when it fires.
    """

    def make(tracer: Tracer, original: Callable) -> Callable:
        traced = tracer.span(layer, name, original)

        def method(self: Any, *args: Any, **kwargs: Any) -> Any:
            if callback_at is not None:
                if "callback" in kwargs:
                    kwargs["callback"] = tracer.callback(kwargs["callback"])
                elif len(args) > callback_at:
                    args = (args[:callback_at]
                            + (tracer.callback(args[callback_at]),)
                            + args[callback_at + 1:])
            if counter is not None and tracer.on:
                tracer.counts[counter] += amount(*args, **kwargs)
            return traced(self, *args, **kwargs)

        return method

    return make


def returning(layer: str, name: str, counter: str,
              measure: Callable[[Any], float] = float,
              calls: Optional[str] = None) -> Factory:
    """A span whose *return value* feeds a counter (items retrieved, expired)."""

    def make(tracer: Tracer, original: Callable) -> Callable:
        traced = tracer.span(layer, name, original)

        def method(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = traced(self, *args, **kwargs)
            if tracer.on:
                tracer.counts[counter] += measure(result)
                if calls is not None:
                    tracer.counts[calls] += 1
            return result

        return method

    return make


def _register_handler(tracer: Tracer, original: Callable) -> Callable:
    def register_handler(self: Any, protocol: str, handler: Callable) -> None:
        return original(self, protocol, tracer.callback(handler, protocol))

    return register_handler


def _schedule(counter: Optional[str]) -> Factory:
    """``schedule(delay, callback, *args)``: the callback is the span."""

    def make(tracer: Tracer, original: Callable) -> Callable:
        def schedule(self: Any, delay: float, callback: Callable, *args: Any,
                     **kwargs: Any) -> Any:
            if counter is not None:
                tracer.count(counter)
            return original(self, delay, tracer.timer(callback), callback,
                            *args, **kwargs)

        return schedule

    return make


def _subscribe(tracer: Tracer, original: Callable) -> Callable:
    """``on_new_data`` / ``on_multicast``: the upcall is the span."""

    def subscribe(self: Any, namespace: str, callback: Callable) -> Any:
        if not isinstance(callback, _EqCallback):
            callback = _EqCallback(callback, tracer.callback(callback))
        return original(self, namespace, callback)

    return subscribe


def _lookup_batch(tracer: Tracer, original: Callable) -> Callable:
    """``RoutingLayer.lookup_batch`` is shared: the instance names the layer."""
    makers = {layer: call(layer, f"{layer}.lookup_batch",
                          f"{layer}.batch_lookups", callback_at=1)(tracer, original)
              for layer in ("can", "chord")}

    def lookup_batch(self: Any, keys: Any, *args: Any, **kwargs: Any) -> Any:
        layer = layer_of_module(type(self).__module__)
        keys = list(keys)
        tracer.count(f"{layer}.keys", len(keys))
        traced = makers.get(layer)
        if traced is None:  # a routing layer this ledger has no column for
            return original(self, keys, *args, **kwargs)
        return traced(self, keys, *args, **kwargs)

    return lookup_batch


def _scan(tracer: Tracer, original: Callable) -> Callable:
    """``StorageManager.scan`` is a generator: drain it inside the span.

    The original snapshots its key list up front, so handing the caller a
    materialised list changes nothing it can observe.
    """
    drain = tracer.span("storage", "StorageManager.scan",
                        lambda self, namespace, now:
                        list(original(self, namespace, now)))

    def scan(self: Any, namespace: str, now: float) -> Any:
        if not tracer.on:
            return original(self, namespace, now)
        items = drain(self, namespace, now)
        tracer.counts["storage.scanned_items"] += len(items)
        return iter(items)

    return scan


def _store_batch(tracer: Tracer, original: Callable) -> Callable:
    traced = tracer.span("storage", "StorageManager.store_batch", original)

    def store_batch(self: Any, items: Any) -> None:
        items = list(items)
        tracer.count("storage.stores", len(items))
        return traced(self, items)

    return store_batch


_NODE = ("repro.net.node", "Node")
_SIM = ("repro.net.simulator", "Simulator")
_PROVIDER = ("repro.dht.provider", "Provider")
_STORAGE = ("repro.dht.storage", "StorageManager")
_MULTICAST = ("repro.dht.multicast", "MulticastService")

SEAMS: Tuple[Tuple[str, str, str, Factory], ...] = (
    # Upcalls: whoever registers a handler, timer or subscription gets a span
    # of its own layer when it fires.
    (*_NODE, "register_handler", _register_handler),
    (*_NODE, "replace_handler", _register_handler),
    (*_NODE, "schedule", _schedule("simulator.timers_scheduled")),
    (*_NODE, "schedule_periodic", _schedule("simulator.timers_scheduled")),
    (*_SIM, "schedule", _schedule(None)),
    (*_SIM, "schedule_periodic", _schedule(None)),
    (*_PROVIDER, "on_new_data", _subscribe),
    (*_PROVIDER, "on_multicast", _subscribe),
    # Downcalls, outermost layer first.
    ("repro.client", "PierClient", "plan", call("sql", "PierClient.plan")),
    ("repro.remote", "GatewayConnection", "rpc", call("gateway.rpc", "gateway.rpc")),
    ("repro.remote", "RemotePier", "pump",
     returning("gateway.pump", "gateway.pump", "gateway.frames")),
    ("repro.core.executor", "QueryExecutor", "submit",
     call("executor", "QueryExecutor.submit")),
    ("repro.core.executor", "QueryExecutor", "finish",
     call("executor", "QueryExecutor.finish")),
    (*_SIM, "run", call("simulator", "Simulator.run")),
    ("repro.net.network", "SimulatedNetwork", "send",
     call("network", "SimulatedNetwork.send")),
    (*_PROVIDER, "put", call("provider", "Provider.put", "provider.put_items")),
    (*_PROVIDER, "put_direct",
     call("provider", "Provider.put_direct", "provider.put_items")),
    (*_PROVIDER, "put_batch",
     call("provider", "Provider.put_batch", "provider.put_items", _len_of(1))),
    (*_PROVIDER, "put_direct_batch",
     call("provider", "Provider.put_direct_batch", "provider.put_items",
          _len_of(2))),
    (*_PROVIDER, "put_chunk",
     call("provider", "Provider.put_chunk", "provider.put_items", _len_of(1))),
    (*_PROVIDER, "renew",
     call("provider", "Provider.renew", "provider.renewals")),
    (*_PROVIDER, "get",
     call("provider", "Provider.get", "provider.get_keys", callback_at=2)),
    (*_PROVIDER, "get_batch",
     call("provider", "Provider.get_batch", "provider.get_keys", _len_of(1),
          callback_at=2)),
    (*_PROVIDER, "multicast", call("provider", "Provider.multicast")),
    (*_PROVIDER, "multicast_batch",
     call("provider", "Provider.multicast_batch")),
    ("repro.dht.softstate", "RenewalAgent", "renew_all",
     returning("provider", "RenewalAgent.renew_all", "provider.renewals")),
    (*_MULTICAST, "multicast",
     call("multicast", "MulticastService.multicast", "multicast.floods")),
    (*_MULTICAST, "multicast_batch",
     call("multicast", "MulticastService.multicast_batch", "multicast.floods")),
    ("repro.dht.can", "CanRouting", "lookup",
     call("can", "can.lookup", "can.scalar_lookups", callback_at=1)),
    ("repro.dht.chord", "ChordRouting", "lookup",
     call("chord", "chord.lookup", "chord.scalar_lookups", callback_at=1)),
    ("repro.dht.api", "RoutingLayer", "lookup_batch", _lookup_batch),
    (*_STORAGE, "store",
     call("storage", "StorageManager.store", "storage.stores")),
    (*_STORAGE, "store_batch", _store_batch),
    (*_STORAGE, "retrieve",
     returning("storage", "StorageManager.retrieve", "storage.retrieved_items",
               len, calls="storage.retrieves")),
    (*_STORAGE, "scan", _scan),
    (*_STORAGE, "expire_items",
     returning("storage", "StorageManager.expire_items", "storage.expired")),
)


_TRACED_CODE = Tracer()._span(0, "", _fire).__code__

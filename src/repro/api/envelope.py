"""The versioned wire envelope, built in exactly one place.

Every body the service emits — success or error, single service or
shard router — is stamped with :data:`~repro.api.types.SCHEMA_VERSION`.
Historically each emitting site built its own dict literal (three in
``serve/service.py``, three in ``serve/shard.py``, plus the HTTP
layer's error path); this module is the single construction point so a
schema bump cannot leave a stale stamp behind.

* :func:`success_envelope` — ``{"schema_version": ..., **fields}``;
* :func:`error_envelope` — ``{"schema_version": ..., "error": {...}}``
  from a typed :class:`~repro.api.errors.ApiError` or a bare
  ``(code, message)`` pair;
* :func:`plan_envelope_bytes` — the ``/v1/plan`` success body, already
  encoded, from each assignment's :func:`assignment_fragments`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Mapping

from repro.api.errors import ApiError

if TYPE_CHECKING:
    from repro.api.plan import PlanResult

__all__ = [
    "success_envelope",
    "error_envelope",
    "assignment_fragments",
    "plan_envelope_bytes",
]


def success_envelope(**fields: Any) -> dict[str, Any]:
    """A versioned success body carrying ``fields``.

    ``fields`` must not spell ``schema_version`` — the stamp is this
    function's job.
    """
    from repro.api.types import SCHEMA_VERSION

    if "schema_version" in fields:
        raise ValueError("success_envelope stamps schema_version itself")
    return {"schema_version": SCHEMA_VERSION, **fields}


def error_envelope(
    error: ApiError | str, message: str | None = None
) -> dict[str, Any]:
    """A versioned error body.

    Pass a typed :class:`~repro.api.errors.ApiError` (its wire
    ``ErrorInfo`` is serialized, details included), or a bare
    ``(code, message)`` pair for errors that never existed as
    exceptions (HTTP framing problems, unknown routes).
    """
    from repro.api.types import SCHEMA_VERSION

    if isinstance(error, ApiError):
        info = error.to_info().to_dict()
    else:
        if message is None:
            raise ValueError("a bare error code needs a message")
        info = {"code": error, "message": message}
    return {"schema_version": SCHEMA_VERSION, "error": info}


#: What ``json.dumps`` writes for the floats ``float.__repr__`` spells
#: ``inf``, ``-inf`` and ``nan``.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _scalar(value: Any) -> str:
    """One JSON scalar exactly as ``json.dumps`` writes it.

    Floats, strings and integers take the calls the stdlib C encoder
    makes: ``float.__repr__`` (plain ``repr`` spells a numpy float64
    ``np.float64(...)``), ``encode_basestring_ascii`` and
    ``int.__repr__``.
    """
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int) and value is not True and value is not False:
        return int.__repr__(value)
    return json.dumps(value)


def assignment_fragments(
    spec: tuple[Any, Any, Any], fields: Mapping[str, Any]
) -> tuple[str, str, str]:
    """One plan assignment's JSON text, as ``json.dumps(...,
    sort_keys=True)`` writes it, in the three pieces around its item's
    ``weight`` and its ``load_nodes``.

    ``spec`` is the item's ``(workload, size_gb, num_threads)``;
    ``fields`` maps the assignment's other field names (``config``,
    ``energy_j``, ``machine``, ``metric``, ``metric_name``,
    ``metric_unit``, ``time_ns``) to their values.
    """
    workload, size_gb, num_threads = spec
    # The keys of PlanAssignment.to_dict and TrafficItem.to_dict, sorted.
    return (
        '{"config": ' + _scalar(fields["config"])
        + ', "energy_j": ' + _scalar(fields["energy_j"])
        + ', "item": {"num_threads": ' + _scalar(num_threads)
        + ', "size_gb": ' + _scalar(size_gb)
        + ', "weight": ',
        ', "workload": ' + _scalar(workload) + '}, "load_nodes": ',
        ', "machine": ' + _scalar(fields["machine"])
        + ', "metric": ' + _scalar(fields["metric"])
        + ', "metric_name": ' + _scalar(fields["metric_name"])
        + ', "metric_unit": ' + _scalar(fields["metric_unit"])
        + ', "time_ns": ' + _scalar(fields["time_ns"]) + "}",
    )


def plan_envelope_bytes(result: "PlanResult", meta: Mapping[str, Any]) -> bytes:
    """The ``/v1/plan`` success body: byte-identical to
    ``json.dumps(success_envelope(plan=result.to_dict(), meta=meta),
    sort_keys=True).encode()``, without building those dictionaries.

    A plan repeats few distinct options over many items, so each
    assignment's text other than its ``weight`` and ``load_nodes`` is
    encoded once and reused.  The planner's assignments carry that text
    (``PlanAssignment.encoded``), encoded once per priced option; any
    other assignment's is encoded once per distinct value in this call.
    That memo's key carries each number's type, and a zero by its
    ``repr``, so ``1`` and ``1.0``, or ``0.0`` and ``-0.0``, never share
    a fragment.
    """
    from repro.api.types import SCHEMA_VERSION

    fragments: dict[tuple[Any, ...], tuple[str, str, str]] = {}
    assignments = []
    for a in result.assignments:
        item = a.item
        parts = a.encoded
        if parts is None:
            key = (
                a.config, a.machine, a.metric_name, a.metric_unit,
                item.workload, item.num_threads, item.num_threads.__class__,
                item.size_gb or repr(item.size_gb), item.size_gb.__class__,
                a.energy_j or repr(a.energy_j), a.energy_j.__class__,
                a.metric or repr(a.metric), a.metric.__class__,
                a.time_ns or repr(a.time_ns), a.time_ns.__class__,
            )
            parts = fragments.get(key)
            if parts is None:
                parts = fragments[key] = assignment_fragments(
                    (item.workload, item.size_gb, item.num_threads), vars(a)
                )
        head, middle, tail = parts
        assignments.append(
            head + _scalar(item.weight) + middle + _scalar(a.load_nodes) + tail
        )
    loads = [load.to_dict() for load in result.loads]
    return (
        '{"meta": ' + json.dumps(meta, sort_keys=True)
        + ', "plan": {"assignments": [' + ", ".join(assignments)
        + '], "loads": ' + json.dumps(loads, sort_keys=True)
        + ', "objective": ' + _scalar(result.objective)
        + ', "objective_value": ' + _scalar(result.objective_value)
        + ', "schema_version": ' + _scalar(result.schema_version)
        + '}, "schema_version": ' + _scalar(SCHEMA_VERSION) + "}"
    ).encode("utf-8")

"""JSON file formats for networks and measurement plans.

Network files describe either a named family or an explicit edge list:

    {"family": "complete", "n": 8}
    {"family": "k_partite", "parts": [2, 3, 4]}
    {"family": "explicit", "n": 4, "edges": [[0, 1, "1"], [1, 2, "3/2"], ...]}

Plan files hold the probe list with provenance:

    {"mode": "removed", "measurements": [[0, 1], [1, 2]], "provenance": ["butterfly", ...]}

Rationals travel as strings ("3/2", "2"); a conductance written as a JSON
number is read from its literal text, so nothing is ever rounded.
The CLI also accepts family shorthands like K8 or K2,3,4 wherever a
network file is expected.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction

from .families import KPartiteShape, complete_network, kpartite_network
from .network import (
    INFINITE,
    FaultMode,
    Measurement,
    MeasurementPlan,
    Network,
    Resistance,
    _Record,
)


class FileFormatError(ValueError):
    """A network or plan document failed validation; message carries context."""


MAX_VERTICES = 256  # largest network a file or shorthand may describe

# Bounds on one conductance token, checked before and after `Fraction` parses
# it: an unbounded exponent ("1e-10000000") would make the parse itself hang.
MAX_CONDUCTANCE_CHARS = 1000
MAX_CONDUCTANCE_EXPONENT = 1000
MAX_CONDUCTANCE_BITS = 1024  # of the numerator and of the denominator


def check_vertex_count(n: int) -> None:
    """Refuse a network above MAX_VERTICES before any edge or plan is built."""
    if n > MAX_VERTICES:
        raise FileFormatError(
            f"network has {n} vertices; the limit is MAX_VERTICES = {MAX_VERTICES}"
        )


class NetworkSpec(_Record):
    """A parsed network and its report label: complete(8), k_partite(2, 3, 4), explicit(n=4)."""

    __slots__ = _fields = ("network", "label")

    def __init__(self, network: Network, label: str):
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "label", label)


_SHORTHAND = re.compile(r"^[Kk](\d+(?:,\d+)*)$")


def _parse_int(text: str, what: str = "an integer") -> int:
    """An integer from text; past Python's int-from-text digit limit, a short error naming it."""
    limit, digits = sys.get_int_max_str_digits(), sum(ch.isdigit() for ch in text)
    if limit and digits > limit:
        raise FileFormatError(
            f"{what} of {digits} digits is over Python's {limit}-digit limit for integers in text")
    return int(text)


def _parse_size(text: str) -> int:
    """One family size, as `_parse_int` reads it."""
    return _parse_int(text, "a size")


def _complete_spec(n: int) -> NetworkSpec:
    check_vertex_count(n)
    return NetworkSpec(complete_network(n), f"complete({n})")


def _kpartite_spec(parts) -> NetworkSpec:
    shape = KPartiteShape(tuple(sorted(parts)))
    check_vertex_count(shape.n)
    return NetworkSpec(kpartite_network(shape), f"k_partite{shape.parts}")


def parse_shorthand(text: str) -> NetworkSpec | None:
    """Recognize K<n> and K<a,b,...> family shorthands; None if not one."""
    match = _SHORTHAND.match(text.strip())
    if not match:
        return None
    nums = [_parse_size(x) for x in match.group(1).split(",")]
    return _complete_spec(nums[0]) if len(nums) == 1 else _kpartite_spec(nums)


def network_spec_from_dict(data: dict) -> NetworkSpec:
    family = data.get("family")
    if family == "complete":
        return _complete_spec(_integer(data.get("n"), 'field "n"'))
    if family == "k_partite":
        parts = data.get("parts")
        if not isinstance(parts, list) or not parts:
            raise FileFormatError('k_partite network needs a nonempty "parts" list')
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in parts):
            raise FileFormatError('"parts" must hold integers')
        return _kpartite_spec(parts)
    if family == "explicit":
        n = _integer(data.get("n"), 'field "n"')
        check_vertex_count(n)
        raw = data.get("edges")
        if not isinstance(raw, list):
            raise FileFormatError('explicit network needs an "edges" list')
        edges = []
        for pos, item in enumerate(raw):
            try:
                u, v, w = item
                edges.append((_integer(u, "vertex"), _integer(v, "vertex"), _conductance(w)))
            except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
                raise FileFormatError(f"edges[{pos}]: {exc}") from exc
            if edges[-1][2] <= 0:
                raise FileFormatError(f"edges[{pos}]: conductance must be positive")
        try:
            return NetworkSpec(Network.from_edge_list(n, edges), f"explicit(n={n})")
        except ValueError as exc:
            raise FileFormatError(str(exc)) from exc
    raise FileFormatError(f"unknown network family {family!r}")


_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)")


def _conductance(w) -> Fraction:
    """Parse one conductance token within the MAX_CONDUCTANCE_* bounds."""
    text = str(w)
    if len(text) > MAX_CONDUCTANCE_CHARS:
        raise ValueError(
            f"conductance has {len(text)} characters; "
            f"the limit is MAX_CONDUCTANCE_CHARS = {MAX_CONDUCTANCE_CHARS}"
        )
    exponent = _EXPONENT.search(text)
    if exponent and int(exponent.group(1).replace("_", "")) > MAX_CONDUCTANCE_EXPONENT:
        raise ValueError(
            f"conductance exponent {exponent.group(1)} is too large; "
            f"the limit is MAX_CONDUCTANCE_EXPONENT = {MAX_CONDUCTANCE_EXPONENT}"
        )
    value = Fraction(text)
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > MAX_CONDUCTANCE_BITS:
        raise ValueError(
            f"conductance needs {bits}-bit integers; "
            f"the limit is MAX_CONDUCTANCE_BITS = {MAX_CONDUCTANCE_BITS}"
        )
    return value


def load_network(path_or_shorthand: str) -> NetworkSpec:
    spec = parse_shorthand(path_or_shorthand)
    if spec is not None:
        return spec
    return network_spec_from_dict(_load_json(path_or_shorthand))


def plan_to_dict(plan: MeasurementPlan) -> dict:
    return {
        "mode": plan.mode.value,
        "measurements": [[m.r, m.s] for m in plan.measurements],
        "provenance": list(plan.provenance),
    }


def plan_from_dict(data: dict) -> MeasurementPlan:
    mode_text = data.get("mode", "removed")
    try:
        mode = FaultMode(mode_text)
    except ValueError as exc:
        raise FileFormatError(f'unknown mode {mode_text!r} (use "removed" or "shorted")') from exc
    raw = data.get("measurements")
    if not isinstance(raw, list):
        raise FileFormatError('plan needs a "measurements" list')
    measurements = []
    for pos, item in enumerate(raw):
        try:
            r, s = item
            measurements.append(Measurement(_integer(r, "vertex"), _integer(s, "vertex")))
        except (ValueError, TypeError) as exc:
            raise FileFormatError(f"measurements[{pos}]: {exc}") from exc
    provenance = data.get("provenance")
    if provenance is None:
        provenance = ["file"] * len(measurements)
    if not isinstance(provenance, list):
        raise FileFormatError('"provenance" must be a list')
    try:
        return MeasurementPlan(tuple(measurements), tuple(str(t) for t in provenance), mode)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def load_plan(path: str) -> MeasurementPlan:
    return plan_from_dict(_load_json(path))


def validate_plan_for(plan: MeasurementPlan, net: Network):
    for m in plan.measurements:
        for v in m.pair:
            if not 0 <= v < net.n:
                raise FileFormatError(
                    f"measurement {m.pair} references vertex {v}, "
                    f"but the network has n={net.n}"
                )


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # A float's literal text, never a float; an integer within the digit limit.
            data = json.load(fh, parse_float=str, parse_int=_parse_int)
    except FileNotFoundError as exc:
        raise FileFormatError(f"{path}: no such file") from exc
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # undecodable bytes, an integer past the digit limit
        raise FileFormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return data


def _integer(value, what: str) -> int:
    """A JSON integer as the file wrote it: a bool, float or string is refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise FileFormatError(f"{what} must be an integer")
    return value


@contextmanager
def _all_digits():
    """Lift Python's int-to-str digit limit inside the block, so an answer prints in full.

    Only around printing: elsewhere the limit bounds the integers `_load_json` reads.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def resistance_text(value: Resistance) -> str:
    """Exact rendering: "p/q" (or plain integer) for finite, "inf" for open circuit."""
    if value == INFINITE:
        return "inf"
    with _all_digits():
        return str(value)


def resistance_with_decimal(value: Resistance) -> str:
    """Exact text plus a six-digit annotation for human eyes."""
    if value == INFINITE:
        return "inf"
    try:
        approx = f"{float(value):.6g}"
    except OverflowError:  # beyond the float range: round in decimal instead
        with localcontext(Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            approx = f"{(Decimal(value.numerator) / value.denominator).normalize():.6g}"
    return f"{resistance_text(value)} (~{approx})"

"""Per-layer counters and busy times, taken from outside the program.

The tracer replaces pclab's public functions with timing wrappers at every
module attribute that holds them, which is the name each caller looks up
(``pclab.experiments.factor_signature``, ``pclab.exactpow.floor_pow`` for the
escalations inside ``floor_pow_batch``, ``pclab.expsum.frac_phase``, ...).
Nothing in the program changes; leaving the ``with`` block puts the
originals back.

Hot inner calls are aggregated as a count plus busy time instead of one span
each.  Each wrapper keeps a frame on a stack so that a layer's self time is
its span minus the wrapped calls made inside it, and a call nested in a call
of its own layer adds no busy time twice.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter

# defining module -> its traced public functions; the layer is the module's
# last name part, and Tracer._record maps each call to its metrics
TRACED = {
    "pclab.primes": ("primes_in", "prime_count", "mangoldt_table"),
    "pclab.exactpow": ("floor_pow", "floor_pow_batch", "frac_scaled_pow", "frac_phase", "scaled_floor_table"),
    "pclab.factor": ("factor_signature", "is_prime"),
    "pclab.experiments": (
        "members", "almost_prime_census", "squarefree_census", "ps_prime_count",
        "residue_histogram", "level_error", "star_discrepancy",
    ),
    "pclab.expsum": ("weyl_sum", "prime_expsum", "trilinear_sum", "triple_sum"),
    "pclab.constants": (
        "greaves_delta", "regime_constants", "regime_inequalities", "threshold", "admissible_pairs",
        "feasible_theta_interval", "feasibility_params", "feasibility_check", "margin_verify",
        "weyl_margin_minorants", "max_c_feasible", "r_bound",
    ),
}

CRITERIA = tuple(range(1, 14))

# every per-layer metric the traced run reports, with its unit
METRICS = (
    ("setup.import_s", "s"),
    ("setup.warm_s", "s"),
    ("primes.calls", "count"),
    ("primes.items", "count"),
    ("primes.busy_s", "s"),
    ("exactpow.batch_items", "count"),
    ("exactpow.batch_busy_s", "s"),
    ("exactpow.escalations", "count"),
    ("exactpow.escalation_s", "s"),
    ("exactpow.escalation_max_s", "s"),
    ("exactpow.escalation_ratio", "ratio"),
    ("exactpow.floor_calls", "count"),
    ("exactpow.floor_busy_s", "s"),
    ("exactpow.frac_calls", "count"),
    ("exactpow.frac_busy_s", "s"),
    ("exactpow.phase_calls", "count"),
    ("exactpow.phase_busy_s", "s"),
    ("exactpow.table_entries", "count"),
    ("exactpow.table_busy_s", "s"),
    ("factor.signature_calls", "count"),
    ("factor.signature_busy_s", "s"),
    ("factor.prime_calls", "count"),
    ("factor.prime_busy_s", "s"),
    ("experiments.members_s", "s"),
    ("experiments.self_s", "s"),
    ("expsum.terms", "count"),
    ("expsum.self_s", "s"),
    ("constants.calls", "count"),
    ("constants.busy_s", "s"),
    *((f"acceptance.criterion_{n}_s", "s") for n in CRITERIA),
    ("trace.overhead_s", "s"),
)


def _sum_terms(result) -> int:
    p = result.params
    if result.kind == "trilinear":
        return p["D"] * p["M"] * p["L"]
    if result.kind == "triple":
        return p["H"] * p["D"] * p["prime_powers"]
    return p["terms"]


class Tracer:
    """Counters for one traced pass: ``with Tracer() as t:`` wraps, leaving unwraps."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open frames: [layer, function, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        # escalations per exponent denominator, and the slowest as (seconds, n)
        self.escalations_by_den: Counter[int] = Counter()
        self.slowest_escalation: tuple[float, int] = (0.0, 0)

    # ---------------------------------------------------------- patching

    def __enter__(self):
        originals = {}
        for mod_name, names in TRACED.items():
            mod = sys.modules[mod_name]
            layer = mod_name.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pclab" or mod_name.startswith("pclab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        record = self._record

        def traced(*args, **kwargs):
            frame = [layer, name, 0.0]
            stack.append(frame)
            t0 = _perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = _perf() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dt
                record(layer, name, parent, dt, dt - frame[2], args, result)

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- recording

    def _record(self, layer, name, parent, dt, self_dt, args, result) -> None:
        v = self.values
        outer = parent is None or parent[0] != layer
        if layer == "exactpow":
            if name == "floor_pow" and parent is not None and parent[1] == "floor_pow_batch":
                v["exactpow.escalations"] += 1
                v["exactpow.escalation_s"] += dt
                v["exactpow.escalation_max_s"] = max(v["exactpow.escalation_max_s"], dt)
                self.escalations_by_den[args[1].den] += 1
                self.slowest_escalation = max(self.slowest_escalation, (dt, args[0]))
            elif name == "floor_pow":
                v["exactpow.floor_calls"] += 1
                v["exactpow.floor_busy_s"] += dt
            elif name == "floor_pow_batch":
                v["exactpow.batch_items"] += len(args[0])
                v["exactpow.batch_busy_s"] += dt
            elif name == "frac_scaled_pow":
                v["exactpow.frac_calls"] += 1
                v["exactpow.frac_busy_s"] += dt
            elif name == "frac_phase":
                v["exactpow.phase_calls"] += 1
                v["exactpow.phase_busy_s"] += dt
            else:  # scaled_floor_table
                v["exactpow.table_entries"] += len(result) if result is not None else 0
                v["exactpow.table_busy_s"] += dt
        elif layer == "factor":
            if outer:
                kind = "prime" if name == "is_prime" else "signature"
                v[f"factor.{kind}_calls"] += 1
                v[f"factor.{kind}_busy_s"] += dt
        elif layer == "primes":
            if name == "primes_in" and result is not None:
                v["primes.items"] += len(result)
            if outer:
                v["primes.calls"] += 1
                v["primes.busy_s"] += dt
        elif layer == "experiments":
            v["experiments.self_s"] += self_dt
            if name == "members":
                v["experiments.members_s"] += dt
        elif layer == "expsum":
            v["expsum.self_s"] += self_dt
            if result is not None:
                v["expsum.terms"] += _sum_terms(result)
        elif outer:  # constants
            v["constants.calls"] += 1
            v["constants.busy_s"] += dt

    def metrics(self) -> dict[str, float]:
        """Every traced-pass metric (setup and overhead are filled in by the caller)."""
        v = self.values
        items = v["exactpow.batch_items"]
        v["exactpow.escalation_ratio"] = v["exactpow.escalations"] / items if items else 0.0
        return {name: float(v[name]) for name, _ in METRICS}

"""Command-line front end.

Subcommands wire JSON files to the library operations: ``quantum``,
``simulate``, ``estimate``, ``classify``, ``inequality``, ``efficiency``,
``audit``.  Results go to stdout as JSON with numbers rounded to 12
significant digits; diagnostics go to stderr.  Exit codes: 0 success,
2 malformed input (files or flags), 1 internal error.

Angles are accepted in degrees and converted to radians internally.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import detection, polytope, quantum, runs
from .errors import BellBoxError
from .model import (
    Behavior,
    behavior_from_json_dict,
    behavior_to_json_dict,
    evaluate_functional,
    wigner_chained,
    wigner_literal,
)

_INPUT_ERRORS = (BellBoxError, OSError, ValueError)  # json.JSONDecodeError is a ValueError


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and bad flags (2)
        return 0 if exc.code in (0, None) else 2
    try:
        return ns.handler(ns)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bellbox", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("quantum", help="write the behavior of a two-qubit state")
    p.add_argument("--state", required=True, help='"singlet", "phi_plus", or "amps:..."')
    p.add_argument("--angles-a", required=True, help="comma-separated degrees, one per setting")
    p.add_argument("--angles-b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_quantum)

    p = sub.add_parser("simulate", help="draw runs from a behavior file")
    p.add_argument("--behavior", required=True)
    p.add_argument("--runs", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--geometry", required=True, help="L,T in meters,seconds")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate a behavior from a run log")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("classify", help="local / weakly nonlocal / signalling verdict")
    p.add_argument("--behavior", required=True)
    p.add_argument("--tol", type=float, default=polytope.DEFAULT_TOL)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("inequality", help="evaluate a Wigner-form functional")
    p.add_argument("--behavior", required=True)
    p.add_argument("--form", required=True, choices=("literal", "chained"))
    p.add_argument("--indices", required=True, help="k for literal; i,j,k for chained")
    p.set_defaults(handler=_cmd_inequality)

    p = sub.add_parser("efficiency", help="critical detection efficiency for a target")
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")
    p.add_argument("--tol-eta", type=float, default=detection.TOL_ETA_DEFAULT)
    p.add_argument("--model-out", help="also write the feasible loophole model here")
    p.set_defaults(handler=_cmd_efficiency)

    p = sub.add_parser("audit", help="locality and randomness audits of a run log")
    p.add_argument("--runs", required=True)
    p.add_argument("--geometry", required=True, help="L,T in meters,seconds")
    p.set_defaults(handler=_cmd_audit)

    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _parse_geometry(text: str) -> runs.Geometry:
    values = _parse_floats(text, "--geometry")
    if len(values) != 2:
        raise ValueError(f"--geometry takes L,T (two numbers), got {text!r}")
    return runs.Geometry(values[0], values[1])


def _load_behavior(path: str) -> Behavior:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    # Estimate files are the behavior schema plus stderr/totals companions.
    return behavior_from_json_dict(data, ignore=("stderr", "totals"))


def _write_json_file(path: str, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _rounded(value):
    """Round every float to 12 significant digits for printing."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    raise TypeError(f"cannot print {type(value)!r}")


def _emit(data: dict) -> None:
    print(json.dumps(_rounded(data)))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_quantum(ns) -> int:
    state = quantum.parse_state_spec(ns.state)
    plan = quantum.MeasurementPlan.from_degrees(
        _parse_floats(ns.angles_a, "--angles-a"),
        _parse_floats(ns.angles_b, "--angles-b"),
    )
    behavior = quantum.behavior_from_state(state, plan)
    document = behavior_to_json_dict(behavior)
    _write_json_file(ns.out, document)
    _emit(document)
    return 0


def _cmd_simulate(ns) -> int:
    behavior = _load_behavior(ns.behavior)
    geometry = _parse_geometry(ns.geometry)
    chunks = runs.simulate_chunks(behavior, ns.runs, ns.seed, geometry, stream=ns.stream)
    runs.write_run_chunks(behavior.scenario, chunks, ns.out)
    _emit(
        {
            "runs": ns.runs,
            "seed": ns.seed,
            "stream": ns.stream,
            "geometry": {"L": geometry.L, "T": geometry.T},
            "out": ns.out,
        }
    )
    return 0


def _cmd_estimate(ns) -> int:
    tally = runs.tally_run_log(ns.runs)
    behavior, stderr = runs.estimate(tally)
    document = behavior_to_json_dict(behavior)
    document["stderr"] = stderr.tolist()
    document["totals"] = tally.totals.tolist()
    _write_json_file(ns.out, document)
    _emit(document)
    return 0


def _cmd_classify(ns) -> int:
    behavior = _load_behavior(ns.behavior)
    verdict = polytope.classify(behavior, tol=ns.tol)
    document = {
        "kind": verdict.kind.value,
        "defect": verdict.defect,
        "witness": None,
        "decomposition": None,
    }
    if verdict.witness is not None:
        value = evaluate_functional(verdict.witness, behavior)
        document["witness"] = {
            "coefficients": verdict.witness.coefficients.tolist(),
            "reference_bound": verdict.witness.reference_bound,
            "direction": verdict.witness.direction.value,
            "value": value,
            "margin": verdict.witness.reference_bound - value,
        }
    if verdict.decomposition is not None:
        document["decomposition"] = polytope.local_model_to_json_dict(
            verdict.decomposition, behavior.scenario
        )
    _emit(document)
    return 0


def _cmd_inequality(ns) -> int:
    behavior = _load_behavior(ns.behavior)
    indices = [int(x) for x in ns.indices.split(",")]
    if ns.form == "literal":
        if len(indices) != 1:
            raise ValueError("--form literal takes a single index k")
        functional = wigner_literal(indices[0], behavior.scenario)
    else:
        if len(indices) != 3:
            raise ValueError("--form chained takes three indices i,j,k")
        functional = wigner_chained(*indices, scenario=behavior.scenario)
    bounds = polytope.functional_vertex_bounds(functional)
    _emit(
        {
            "form": ns.form,
            "indices": indices,
            "value": evaluate_functional(functional, behavior),
            "reference_bound": functional.reference_bound,
            "direction": functional.direction.value,
            "local_min": bounds.min,
            "local_max": bounds.max,
        }
    )
    return 0


def _cmd_efficiency(ns) -> int:
    target = _load_behavior(ns.target)
    result = detection.critical_efficiency(target, mode=ns.mode, tol_eta=ns.tol_eta)
    if ns.model_out:
        extended = target.scenario.with_no_click()
        _write_json_file(
            ns.model_out,
            polytope.local_model_to_json_dict(result.feasible_model, extended),
        )
    _emit(detection.threshold_to_json_dict(result))
    return 0


def _cmd_audit(ns) -> int:
    geometry = _parse_geometry(ns.geometry)
    tally = runs.tally_run_log(ns.runs)
    locality = runs.locality_audit(geometry)
    randomness = runs.randomness_audit(tally)
    _emit(
        {
            "locality": {"pass": locality.passed, "margin_meters": locality.margin_meters},
            "randomness": dataclasses.asdict(randomness),
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

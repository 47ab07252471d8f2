"""Record bellbox library results on a fixed seeded corpus, to the last bit.

    python tests/lib_transcript.py SRC OUT

Imports bellbox from SRC and writes the file OUT, one line per result: a
float as ``float.hex``, an array as the hex of each entry, a strategy as
its outcome indices.  A call that raises leaves its error's type and
message instead, so two source trees compare with one ``diff``:

    python tests/lib_transcript.py old/src /tmp/old.txt
    python tests/lib_transcript.py src /tmp/new.txt
    diff /tmp/old.txt /tmp/new.txt

The CLI prints numbers rounded to 12 digits; this shows a change in the
last bit of a witness, a visibility or a weight.  The corpus:
``classify`` (kind, defect, witness, decomposition) and
``local_visibility`` on noisy singlets, local mixtures, fair-sampled
singlets and random signalling tables, 2x2 to 5x5;
``functional_vertex_bounds`` on the Wigner and CHSH forms and on random
functionals; ``critical_efficiency`` in both modes on CHSH, the 3x3 chained
target and the 4x4 singlet at turns of 0 and 37 degrees (turn 0 fails in
strict mode); and ``construct_loophole_model`` at a few efficiencies.  It
takes a few seconds.  pytest does not collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

SEED = 20000
SIZES = (2, 3, 4, 5)

CHSH = [0, 90], [45, 135]
CHAINED = [120, 0, 60], [120, 0, 60]  # with B's outputs swapped
SINGLET4 = [0, 45, 90, 135], [22.5, 67.5, 112.5, 157.5]
TURNED4 = [37, 82, 127, 172], [59.5, 104.5, 149.5, 194.5]  # SINGLET4 turned by 37 degrees
PROBE_ETAS = (0.5, 0.7, 0.8, 0.83, 0.9, 1.0)


def _floats(values) -> str:
    return " ".join(map(float.hex, np.ravel(values).astype(float).tolist()))


def _strategy(strategy) -> str:
    return f"{''.join(map(str, strategy.f_a))}/{''.join(map(str, strategy.f_b))}"


def _model(model) -> str:
    if model is None:
        return "None"
    return f"strategies {' '.join(map(_strategy, model.strategies))} weights {_floats(model.weights)}"


def _verdict(verdict) -> str:
    text = f"{verdict.kind.value} defect {_floats(verdict.defect)}"
    if verdict.witness is not None:
        w = verdict.witness
        text += f" witness {w.direction.value} {_floats(w.reference_bound)} coefficients {_floats(w.coefficients)}"
    if verdict.decomposition is not None:
        text += f" decomposition {_model(verdict.decomposition)}"
    return text


def _bounds(bounds) -> str:
    return (f"min {_floats(bounds.min)} max {_floats(bounds.max)} "
            f"argmin {_strategy(bounds.argmin)} argmax {_strategy(bounds.argmax)}")


def _threshold(result) -> str:
    trace = " ".join(f"{_floats(eta)}:{feasible}" for eta, feasible in result.bisection_trace)
    return f"eta {_floats(result.eta_star)} trace {trace} model {_model(result.feasible_model)}"


def _corpus(bb) -> list[tuple[str, object]]:
    """(name, thunk) pairs; each thunk returns the text of one result."""
    rng = np.random.default_rng(SEED)

    def singlet(angles_a, angles_b, outputs_swapped=False):
        behavior = bb.behavior_from_state(bb.SINGLET, bb.MeasurementPlan.from_degrees(angles_a, angles_b))
        return bb.relabel_outputs(behavior, "B", (1, 0)) if outputs_swapped else behavior

    behaviors = []
    for n in SIZES:
        scenario = bb.Scenario(n, n)
        uniform = bb.uniform_behavior(scenario).p
        strategies = bb.enumerate_strategies(scenario)
        for k in range(20):
            target = singlet(rng.uniform(0, 180, n), rng.uniform(0, 180, n))
            v = rng.uniform(0.6, 1.0)
            behaviors.append((f"{n}x{n}-noisy-{k}", bb.validate_behavior(scenario, v * target.p + (1 - v) * uniform)))
        for k in range(4):
            picks = rng.choice(len(strategies), size=int(rng.integers(1, 9)), replace=False)
            model = bb.LocalModel(tuple(strategies[i] for i in picks), rng.dirichlet(np.ones(picks.size)))
            behaviors.append((f"{n}x{n}-local-{k}", bb.model_behavior(model, scenario)))
        raw = rng.random(scenario.shape) + 1e-3
        behaviors.append((f"{n}x{n}-random", bb.validate_behavior(scenario, raw / raw.sum(axis=(2, 3), keepdims=True))))
    for n in (2, 3):
        eta = rng.uniform(0.6, 1.0)
        target = singlet(rng.uniform(0, 180, n), rng.uniform(0, 180, n))
        behaviors.append((f"{n}x{n}-fair-sampled", bb.apply_fair_sampling(target, eta, eta)))

    corpus = []
    for name, b in behaviors:
        corpus.append((f"classify {name}", lambda b=b: _verdict(bb.classify(b))))
        corpus.append((f"visibility {name}", lambda b=b: _floats(bb.local_visibility(b))))

    functionals = [("chsh", bb.chsh_functional())]
    functionals += [(f"literal-{k}", bb.wigner_literal(k)) for k in range(3)]
    functionals += [("chained-1,2,0", bb.wigner_chained(1, 2, 0))]
    for n in SIZES:
        for scenario in (bb.Scenario(n, n), bb.Scenario(n, n).with_no_click()):
            for k in range(2):
                coefficients = rng.standard_normal(scenario.shape)
                functional = bb.BellFunctional(scenario, coefficients, 0.0, bb.Direction.AT_LEAST)
                functionals.append((f"random-{scenario.shape}-{k}", functional))
    for name, f in functionals:
        corpus.append((f"vertex-bounds {name}", lambda f=f: _bounds(bb.functional_vertex_bounds(f))))

    targets = [
        ("chsh", singlet(*CHSH)),
        ("chained3", singlet(*CHAINED, outputs_swapped=True)),
        ("singlet4", singlet(*SINGLET4)),
        ("turned4", singlet(*TURNED4)),
    ]
    for name, target in targets:
        for mode in ("strict", "weak"):
            corpus.append((f"efficiency {name} {mode}",
                           lambda t=target, m=mode: _threshold(bb.critical_efficiency(t, mode=m))))
    for name, target in targets[:2]:
        for mode in ("strict", "weak"):
            for eta in PROBE_ETAS:
                corpus.append((f"loophole {name} {mode} {eta}",
                               lambda t=target, m=mode, e=eta: _model(bb.construct_loophole_model(t, e, m))))
    return corpus


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(src))
    import bellbox as bb

    lines, errors = [], 0
    for name, thunk in _corpus(bb):
        try:
            text = thunk()
        except Exception as exc:
            text = f"error {type(exc).__name__}: {exc}"
            errors += 1
        lines.append(f"{name}: {text}\n")
    out.write_text("".join(lines), encoding="utf-8")
    print(f"{len(lines)} results, {errors} of them errors, in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

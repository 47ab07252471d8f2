"""Record what a fixed list of bellbox CLI commands print, write and exit with.

    python tests/cli_transcript.py SRC OUT

Runs each command of ``COMMANDS`` as ``python -m bellbox.cli ...`` with
``PYTHONPATH=SRC``, one after another in the new directory OUT, since later
commands read the files earlier ones write.  Command k leaves
``NN-name.txt`` (its command line, exit code, stdout and stderr) beside those
files, so two source trees compare with one ``diff -r``:

    python tests/cli_transcript.py old/src /tmp/old
    python tests/cli_transcript.py src /tmp/new
    diff -r /tmp/old /tmp/new

The list covers every subcommand: singlet and product-state behaviors at
2x2 to 5x5 and a 9x10 one, classify on each, inequality bounds, efficiency in
both modes with ``--model-out``, simulate, estimate and audit at 2e5 runs,
estimate and audit on four small logs in a form simulate never writes, and
bad input, then estimate on two logs with two faults each and simulate with
a subnormal T.  The script exits 1 when a command's exit code is not the one
listed for it, so it doubles as a smoke test.  pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SINGLET4 = "0,45,90,135", "22.5,67.5,112.5,157.5"
TURNED4 = "37,82,127,172", "59.5,104.5,149.5,194.5"  # SINGLET4 turned by 37 degrees
PRODUCT = "amps:0.6,0,0,0,0.8,0,0,0"  # (0.6|0> + 0.8|1>) |0>


def _quantum(out: str, state: str, angles_a: str, angles_b: str) -> tuple[int, str, list[str]]:
    return 0, f"quantum-{out}", ["quantum", "--state", state, "--angles-a", angles_a, "--angles-b", angles_b,
                                 "--out", f"{out}.json"]


def _cmd(code: int, name: str, *argv: str) -> tuple[int, str, list[str]]:
    return code, name, list(argv)


def _write_logs(out: Path) -> None:
    """Write six run logs in forms simulate never writes.

    ``respaced.jsonl`` holds valid records re-spaced by ``json.dumps``'
    default separators.  ``two-faults.jsonl`` has a bad symbol on line 2 and
    a string alpha on line 4, so its error names line 2.  ``crlf.jsonl``
    holds writer-form records with ``\\r\\n`` line ends, which the reader
    reads as text mode does.  ``not-utf8.jsonl`` has a ``0xff`` byte on
    line 3, so its error names line 3.  ``cap-fault-6.jsonl`` and
    ``cap-fault-20001.jsonl`` hold 30,000 writer-form records whose line 1
    has alpha = beta = 300, past the setting-pair cap, and a bad symbol on
    line 6 or line 20,001; the cap, the first fault, is named at line 1
    either way.
    """
    records = [{"i": k, "alpha": k % 2, "beta": k // 2 % 2, "a": "+-"[k // 4 % 2], "b": "-+0"[k % 3],
                "tca": -1e-07, "tcb": -2.5e-07, "tr": 1e-06} for k in range(12)]
    (out / "respaced.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    faulty = records[:5]
    faulty[1] = {**faulty[1], "a": "x"}
    faulty[3] = {**faulty[3], "alpha": "1"}
    (out / "two-faults.jsonl").write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in faulty),
                                          encoding="utf-8")
    compact = [json.dumps(r, separators=(",", ":")).encode() for r in records]
    (out / "crlf.jsonl").write_bytes(b"".join(line + b"\r\n" for line in compact))
    compact[2] = compact[2].replace(b'"a":"+"', b'"a":"\xff"')
    (out / "not-utf8.jsonl").write_bytes(b"".join(line + b"\n" for line in compact))
    capped = [{**records[k % 12], "i": k} for k in range(30_000)]
    capped[0] = {**capped[0], "alpha": 300, "beta": 300}
    for bad in (6, 20_001):
        lines = capped.copy()
        lines[bad - 1] = {**lines[bad - 1], "a": "x"}
        (out / f"cap-fault-{bad}.jsonl").write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in lines), encoding="utf-8")


# (expected exit code, name, arguments).  The 4x4 strict search at turn 0
# raises ArithmeticError in the simplex, an internal error (exit 1).
COMMANDS = [
    _cmd(0, "help", "--help"),
    _quantum("chsh", "singlet", "0,90", "45,135"),
    _quantum("singlet3", "singlet", "120,0,60", "120,0,60"),
    _quantum("wigner3", "phi_plus", "120,0,60", "120,0,60"),  # singlet3 with B's outputs swapped
    _quantum("singlet4", "singlet", *SINGLET4),
    _quantum("turned4", "singlet", *TURNED4),
    _quantum("singlet5", "singlet", "0,36,72,108,144", "18,54,90,126,162"),
    _quantum("singlet9x10", "singlet", "0,20,40,60,80,100,120,140,160", "10,28,46,64,82,100,118,136,154,172"),
]
COMMANDS += [_quantum(f"product{n}", PRODUCT, ",".join(str(30 * k) for k in range(n)),
                      ",".join(str(45 + 20 * k) for k in range(n))) for n in (2, 3, 4, 5)]
COMMANDS += [
    _cmd(0, f"classify-{name}", "classify", "--behavior", f"{name}.json")
    for name in ("chsh", "singlet3", "wigner3", "singlet4", "turned4", "singlet5",
                 "product2", "product3", "product4", "product5")
]
COMMANDS += [
    _cmd(0, "classify-chsh-tol", "classify", "--behavior", "chsh.json", "--tol", "0.1"),
    _cmd(0, "inequality-chained-singlet3", "inequality", "--behavior", "singlet3.json", "--form", "chained",
         "--indices", "1,2,0"),
    _cmd(0, "inequality-literal-wigner3", "inequality", "--behavior", "wigner3.json", "--form", "literal",
         "--indices", "0"),
    _cmd(0, "inequality-chained-9x10", "inequality", "--behavior", "singlet9x10.json", "--form", "chained",
         "--indices", "0,4,8"),
    _cmd(0, "inequality-literal-9x10", "inequality", "--behavior", "singlet9x10.json", "--form", "literal",
         "--indices", "2"),
]
COMMANDS += [
    _cmd(0, f"efficiency-{target}-{mode}", "efficiency", "--target", f"{target}.json", "--mode", mode,
         "--model-out", f"model-{target}-{mode}.json")
    for target in ("chsh", "wigner3", "turned4", "product3") for mode in ("strict", "weak")
]
COMMANDS += [
    _cmd(0, "efficiency-chsh-fine", "efficiency", "--target", "chsh.json", "--tol-eta", "1e-9"),
    _cmd(0, "efficiency-singlet4-weak", "efficiency", "--target", "singlet4.json", "--mode", "weak"),
    _cmd(1, "efficiency-singlet4-strict", "efficiency", "--target", "singlet4.json", "--mode", "strict"),
    _cmd(0, "simulate", "simulate", "--behavior", "chsh.json", "--runs", "200000", "--seed", "7",
         "--geometry", "400,1e-6", "--out", "runs.jsonl"),
    _cmd(0, "simulate-stream", "simulate", "--behavior", "singlet3.json", "--runs", "200000", "--seed", "7",
         "--stream", "3", "--geometry", "400,1e-6", "--out", "runs3.jsonl"),
    _cmd(0, "estimate", "estimate", "--runs", "runs.jsonl", "--out", "estimate.json"),
    _cmd(0, "estimate-3x3", "estimate", "--runs", "runs3.jsonl", "--out", "estimate3.json"),
    _cmd(0, "audit", "audit", "--runs", "runs.jsonl", "--geometry", "400,1e-6"),
    _cmd(0, "audit-close", "audit", "--runs", "runs3.jsonl", "--geometry", "100,1e-6"),
    _cmd(0, "estimate-respaced", "estimate", "--runs", "respaced.jsonl", "--out", "estimate-respaced.json"),
    _cmd(2, "audit-two-faults", "audit", "--runs", "two-faults.jsonl", "--geometry", "400,1e-6"),
    _cmd(0, "classify-estimate", "classify", "--behavior", "estimate.json"),
    _cmd(0, "classify-estimate-tol", "classify", "--behavior", "estimate.json", "--tol", "0.01"),
    _cmd(0, "classify-estimate3-tol", "classify", "--behavior", "estimate3.json", "--tol", "0.01"),
    _cmd(2, "efficiency-estimate", "efficiency", "--target", "estimate.json"),
    _cmd(2, "efficiency-ternary", "efficiency", "--target", "model-chsh-strict.json"),
    _cmd(2, "efficiency-bad-tol-eta", "efficiency", "--target", "chsh.json", "--tol-eta", "0.5"),
    _cmd(2, "classify-bad-tol", "classify", "--behavior", "chsh.json", "--tol", "0"),
    _cmd(2, "classify-missing", "classify", "--behavior", "missing.json"),
    _cmd(2, "inequality-bad-indices", "inequality", "--behavior", "chsh.json", "--form", "chained",
         "--indices", "0,1,2"),
    _cmd(2, "quantum-bad-state", "quantum", "--state", "bell", "--angles-a", "0", "--angles-b", "0",
         "--out", "bad.json"),
    _cmd(2, "simulate-bad-geometry", "simulate", "--behavior", "chsh.json", "--runs", "10", "--seed", "1",
         "--geometry", "400", "--out", "bad.jsonl"),
    _cmd(2, "unknown-subcommand", "transmogrify"),
    _cmd(0, "estimate-crlf", "estimate", "--runs", "crlf.jsonl", "--out", "estimate-crlf.json"),
    _cmd(2, "audit-not-utf8", "audit", "--runs", "not-utf8.jsonl", "--geometry", "400,1e-6"),
    _cmd(2, "estimate-cap-fault-6", "estimate", "--runs", "cap-fault-6.jsonl", "--out", "bad.json"),
    _cmd(2, "estimate-cap-fault-20001", "estimate", "--runs", "cap-fault-20001.jsonl", "--out", "bad.json"),
    _cmd(2, "simulate-subnormal-T", "simulate", "--behavior", "chsh.json", "--runs", "100000", "--seed", "1",
         "--geometry", "400,1e-320", "--out", "subnormal.jsonl"),
]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    out.mkdir(parents=True)
    _write_logs(out)
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}  # --help wraps at COLUMNS
    wrong = []
    for k, (expected, name, args) in enumerate(COMMANDS):
        proc = subprocess.run([sys.executable, "-m", "bellbox.cli", *args], cwd=out, env=env,
                              capture_output=True, text=True, timeout=600)
        record = f"$ bellbox {' '.join(args)}\nexit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        (out / f"{k:02d}-{name}.txt").write_text(record, encoding="utf-8")
        if proc.returncode != expected:
            wrong.append(f"{name}: exit {proc.returncode}, expected {expected}")
    for line in wrong:
        print(line, file=sys.stderr)
    print(f"{len(COMMANDS)} commands, {len(wrong)} with an unexpected exit code, in {out}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

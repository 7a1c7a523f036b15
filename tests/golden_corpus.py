"""The golden corpus: what every command prints, byte for byte.

``CASES`` lists the invocations.  Each runs ``qdrepeater <argv>`` in-process
through ``cli.main``, with warnings raised as errors, and its exit code,
stdout and stderr go into one file, ``tests/golden/<name>.json``.  Output
text is stored as a list of lines, each keeping its line ending.  A
``{tmp}`` in an argument is a fresh temporary directory.  It prints as
``<tmp>``, and each file the command writes there is pinned as well: a CSV
by its SHA-256, header and last row, any other file whole.

Masking rule: four printed measures sit at round-off, so their digits
depend on LAPACK and the CPU.  They are ``node-doubling delta``,
``Rabi-law max deviation``, ``ideal swap max |F - 1|`` and
``full-vs-collective deviation``.  Only the number after ``<label> = `` is
masked, to ``<round-off>``.  The test asserts that this number is below the
bound printed after it.  Every other byte is pinned.

``python tests/golden_corpus.py`` rewrites the whole corpus from the
current program.  A change that alters output on purpose rewrites it and
names each changed file in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

#: file name (without ``.json``) -> the arguments of ``qdrepeater``
CASES = {
    "validate": ["validate"],
    "qsim": ["qsim"],
    "rates": ["rates"],
    "contour": ["contour"],
    "contour-strong-readout": ["contour", "--param",
                               "Omega_readout=2pi*500 GHz"],
    "contour-strong-readout-force": ["contour", "--param",
                                     "Omega_readout=2pi*500 GHz", "--force"],
    "mc": ["mc"],
    "mc-trials-20000": ["mc", "--trials", "20000"],
    "mc-trials-1": ["mc", "--trials", "1"],
    # every successful trial stores below 1 s, and in mc-trials-1 above it
    "mc-storage-below-1s": ["mc", "--param", "n_nest=1", "--p0", "0.5",
                            "--trials", "200"],
    # no trial succeeds, so every statistic prints as nan
    "mc-cutoff-0": ["mc", "--cutoff", "0", "--trials", "200"],
    "mc-cutoff-4-out": ["mc", "--cutoff", "4", "--out", "{tmp}/trials.csv"],
    # error exits
    "rates-one-point": ["rates", "--l-points", "1"],
    "mc-p0-above-one": ["mc", "--p0", "2"],
    "contour-unconverged": ["contour", "--param", "sigma_sd=2pi*2 GHz",
                            "--fp-min", "10", "--fp-max", "100",
                            "--fp-points", "2"],
    # no spectral diffusion: the same quadrature, refused at F_p = 1e300
    "contour-zero-width-non-finite": ["contour", "--param", "sigma_sd=0 Hz",
                                      "--fp-max", "1e300", "--fp-points", "2",
                                      "--pol-min", "0.9", "--pol-max", "0.95",
                                      "--pol-points", "2"],
    "validate-unknown-key": ["validate", "--param", "nope=1"],
}

ROUND_OFF = ("node-doubling delta", "Rabi-law max deviation",
             "ideal swap max |F - 1|", "full-vs-collective deviation")
_ROUND_OFF = re.compile(
    f"({'|'.join(map(re.escape, ROUND_OFF))}) = (\\S+) \\(< (\\S+)\\)")


def _mask(text: str) -> tuple[str, list[tuple[str, float, float]]]:
    """``text`` with each round-off number masked, and the (label, number,
    bound) of each."""
    found = [(m[1], float(m[2]), float(m[3]))
             for m in _ROUND_OFF.finditer(text)]
    return _ROUND_OFF.sub(r"\1 = <round-off> (< \3)", text), found


def _pinned(path: Path, tmp: str):
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".csv":
        return text.replace(tmp, "<tmp>").splitlines(keepends=True)
    lines = text.splitlines(keepends=True)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "header": lines[0], "last_row": lines[-1]}


def run_case(name: str, tmp: str) -> tuple[dict, list]:
    """What ``CASES[name]`` prints and writes with ``{tmp}`` set to ``tmp``,
    as stored in its golden file, and the round-off numbers it masked."""
    from qdrepeater.cli import main

    argv = [arg.replace("{tmp}", tmp) for arg in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    stdout, round_off = _mask(out.getvalue().replace(tmp, "<tmp>"))
    case = {"argv": CASES[name], "exit": code,
            "stdout": stdout.splitlines(keepends=True),
            "stderr": err.getvalue().replace(tmp, "<tmp>").splitlines(
                keepends=True)}
    written = sorted(Path(tmp).iterdir())
    if written:
        case["files"] = {path.name: _pinned(path, tmp) for path in written}
    return case, round_off


def read(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            case, _ = run_case(name, os.path.realpath(tmp))
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(case, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    write_all()

"""One sha256 over the entry route's CLI outputs, and the OpenBLAS kernel that ran them.

``python tests/kernel_digest.py`` prints the kernel name and the hex digest
on one line. The documents are a d = 24 depolarizing, a d = 32 dephasing
and a d = 16 amplitude_damping ladder, the d = 64 depolarizing edge (4096
operators), and a degenerate d = 12 depolarizing scenario (levels k % 3 on
both sides), whose equal levels keep the stable order of their diagonal.
Each is run and swept over channel.p, and every output file goes into the
digest. test_kernels.py starts this script once per kernel.
"""

import ctypes
import glob
import hashlib
import json
import os
import tempfile

import numpy as np

from fluctlab.cli import main


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked at run time, or "unknown"
    where it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:  # an unloadable library, a missing symbol, a NULL or undecodable name
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
        except (OSError, AttributeError, ValueError):
            continue
    return "unknown"


def documents() -> dict:
    """The documents by file stem, each with its scenario name."""
    def doc(name, dim, h_initial, h_final, preset="depolarizing"):
        return {"name": name, "dim": dim, "beta": 1.0,
                "h_initial": {"diag": h_initial}, "h_final": {"diag": h_final},
                "channel": {"preset": preset, "params": [0.3]}, "seed": 0}

    ladders = {f"{p}_ladder": doc(f"{p}-ladder", d, [k / d for k in range(d)],
                                  [2 * (d - 1 - k) / d for k in range(d)], p)
               for p, d in (("depolarizing", 24), ("dephasing", 32), ("amplitude_damping", 16))}
    edge = [k / 64 for k in range(64)]
    degenerate = [k % 3 for k in range(12)]
    return {**ladders, "depolarizing_edge": doc("depolarizing-edge", 64, edge, edge),
            "depolarizing_degenerate": doc("depolarizing-degenerate", 12, degenerate, degenerate)}


def digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in documents().items():
            path, out = os.path.join(tmp, f"{name}.json"), os.path.join(tmp, name)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            for argv in (["run", path], ["sweep", path, "--param", "channel.p",
                                         "--values", "0.2,0.8"]):
                if main([*argv, "--out", out, "--quiet"]) != 0:
                    raise SystemExit(f"{name}: {argv[0]} failed")
            for f in ("report.json", "pf.csv", "pb.csv", "summary.txt", "sweep.csv"):
                with open(os.path.join(out, f), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


if __name__ == "__main__":
    print(openblas_core(), digest())

"""JSON schemas: matrices as row-major [re, im] pairs, sparse-triplet
algebras, Clifford modules and module bundles.

Floats are rounded through 17 significant digits so serialized values
round-trip exactly and files are byte-stable for fixed inputs.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from .algebra import DgAlgebra
from .hilbert import CliffordModule, GradedHilbert


def round17(x) -> float:
    return float(f"{float(x):.17g}")


def complex_pair(z) -> list:
    z = complex(z)
    return [round17(z.real), round17(z.imag)]


def matrix_to_json(mat) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {
        "shape": [int(s) for s in mat.shape],
        "data": [complex_pair(z) for z in mat.reshape(-1)],
    }


def matrix_from_json(data) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in data["data"]], dtype=complex)
    return flat.reshape(data["shape"])


def clifford_to_json(cm: CliffordModule) -> dict:
    return {
        "q": cm.q,
        "parity": [int(p) for p in cm.H.parity],
        "e": [matrix_to_json(m) for m in cm.e],
    }


def clifford_from_json(data) -> CliffordModule:
    # integers through operator.index: a q of 1.5 or an infinite parity is refused, not truncated
    H = GradedHilbert(np.array([operator.index(p) for p in data["parity"]], dtype=int))
    return CliffordModule(H, operator.index(data["q"]), [matrix_from_json(m) for m in data["e"]])


def module_to_json(M) -> dict:
    from .fredholm import CqFredholmModule, OddFredholmModule

    out = {
        "name": M.name,
        "weak": bool(M.weak),
        "algebra": M.alg.to_json_dict(),
        "c": [matrix_to_json(M.c_mats[i]) for i in range(M.alg.dim)],
        "Q": matrix_to_json(M.Q),
    }
    if isinstance(M, CqFredholmModule):
        out["kind"] = "cq-module"
        out["clifford"] = clifford_to_json(M.cm)
    elif isinstance(M, OddFredholmModule):
        out["kind"] = "odd-module"
    else:
        raise ValueError("unknown module type")
    return out


def module_from_json(data):
    from .fredholm import CqFredholmModule, OddFredholmModule

    weak, name = data["weak"], data["name"]
    if not isinstance(weak, bool) or not isinstance(name, str):
        raise TypeError(f"weak must be a JSON boolean and name a string, got {weak!r} and {name!r}")
    alg = DgAlgebra.from_json_dict(data["algebra"])
    c_mats = np.stack([matrix_from_json(m) for m in data["c"]])
    Q = matrix_from_json(data["Q"])
    if data["kind"] == "cq-module":
        cm = clifford_from_json(data["clifford"])
        return CqFredholmModule(alg, cm, c_mats, Q, weak=weak, name=name)
    if data["kind"] == "odd-module":
        return OddFredholmModule(alg, c_mats, Q, weak=weak, name=name)
    raise ValueError(f"unknown module kind {data['kind']!r}")


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=1)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text

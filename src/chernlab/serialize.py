"""JSON schemas: matrices as row-major [re, im] pairs, sparse-triplet
algebras, chains with per-slot coefficient arrays, module bundles.

Floats are rounded through 17 significant digits so serialized values
round-trip exactly and files are byte-stable for fixed inputs.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import DgAlgebra
from .chains import BAR, BAR_RED, CYCLIC, Chain
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
    flat = np.array([re + 1j * im for re, im in data["data"]], dtype=complex)
    return flat.reshape(data["shape"])


def chain_to_json(chain: Chain) -> dict:
    terms = []
    eye = np.eye(chain.alg.dim)
    for word, coeff in sorted(chain.terms.items()):
        slots = [[complex_pair(x) for x in eye[i]] for i in word]
        terms.append({"coeff": complex_pair(coeff), "slots": slots})
    return {"algebra": chain.alg.name, "kind": chain.kind, "terms": terms}


def chain_from_json(data, alg: DgAlgebra) -> Chain:
    kind = data.get("kind", CYCLIC)
    if kind not in (CYCLIC, BAR, BAR_RED):
        raise ValueError(f"unknown chain kind {kind!r}")
    out = Chain(alg, kind)
    for term in data["terms"]:
        coeff = term["coeff"][0] + 1j * term["coeff"][1]
        slots = [np.array([re + 1j * im for re, im in slot]) for slot in term["slots"]]
        out._add_tensor(slots, coeff)
    return out


def clifford_to_json(cm: CliffordModule) -> dict:
    return {
        "q": cm.q,
        "parity": [int(p) for p in cm.H.parity],
        "e": [matrix_to_json(m) for m in cm.e],
    }


def clifford_from_json(data) -> CliffordModule:
    H = GradedHilbert(np.array(data["parity"], dtype=int))
    return CliffordModule(H, int(data["q"]), [matrix_from_json(m) for m in data["e"]])


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

    alg = DgAlgebra.from_json_dict(data["algebra"])
    c_mats = np.stack([matrix_from_json(m) for m in data["c"]])
    Q = matrix_from_json(data["Q"])
    if data["kind"] == "cq-module":
        cm = clifford_from_json(data["clifford"])
        return CqFredholmModule(alg, cm, c_mats, Q, weak=data["weak"], name=data["name"])
    if data["kind"] == "odd-module":
        return OddFredholmModule(alg, c_mats, Q, weak=data["weak"], name=data["name"])
    raise ValueError(f"unknown module kind {data['kind']!r}")


def subspace_to_json(sub) -> dict:
    """Subspace as a matrix of basis chains (the chain schema per column)."""
    eye = np.eye(sub.alg.dim)
    words = sorted(sub.word_index, key=lambda w: sub.word_index[w])
    columns = []
    for j in range(sub.basis.shape[1]):
        terms = []
        for w in words:
            z = sub.basis[sub.word_index[w], j]
            if z != 0:
                terms.append({"coeff": complex_pair(z),
                              "slots": [[complex_pair(x) for x in eye[i]] for i in w]})
        columns.append({"algebra": sub.alg.name, "kind": sub.kind, "terms": terms})
    return {"algebra": sub.alg.name, "kind": sub.kind, "leakage": int(sub.leakage),
            "meta": sub.meta or {}, "basis_chains": columns}


def subspace_from_json(data, alg) -> "object":
    from .chains import subspace_from_chains

    chains = [chain_from_json(col, alg) for col in data["basis_chains"]]
    sub = subspace_from_chains(chains, alg=alg, kind=data.get("kind", CYCLIC),
                               leakage=int(data.get("leakage", 0)), meta=data.get("meta"))
    return sub


def homotopy_to_json(hom, **params) -> dict:
    """Named parametric description of an affine_Q homotopy (no closures)."""
    from .fredholm import CqFredholmModule

    base = CqFredholmModule(hom.alg, hom.cm, hom.c_of(0.0), hom.Q_of(0.0),
                            weak=hom.weak, name=hom.name + "[s=0]")
    out = {"family": "affine_Q", "base": module_to_json(base), "name": hom.name}
    out["params"] = {k: (matrix_to_json(v) if isinstance(v, np.ndarray) else v)
                     for k, v in params.items()}
    return out


def homotopy_from_json(data):
    from .fredholm import Homotopy

    if data["family"] != "affine_Q":
        raise ValueError(f"unknown homotopy family {data['family']!r}")
    base = module_from_json(data["base"])
    V = matrix_from_json(data["params"]["V"])
    return Homotopy.affine_Q(base, V, name=data.get("name"))


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=1)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text

"""Seeded inputs for the benchmark workloads.

Model documents are drawn with NumPy alone, in caralab's model-file schema,
so the inputs stay the same when caralab's own generators change.  The
seed fixes every random entry; the structure of each workload (how many
models, their dimensions, spectrum kinds and boundary points) does not
depend on it, so the amount of work per round is the same for every seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: the suite's boundary points, (tau1, tau2); ray arithmetic at them is exact
TAUS = ((1 + 0j, 1 + 0j), (1 + 0j, -1 + 0j), (-1 + 0j, 1j), (1j, -1j))

SPECTRUM_KINDS = ("projection", "interior", "mixed")

#: corpus: model i has dimension 1 + (7 i mod 24), a permutation of 1..24
CORPUS_MODELS = 24
CORPUS_MAX_DIM = 24

#: desk64: 8 eigenvalues at 1, 8 at 0 and 48 interior, as the desk-scale test
DESK_DIM = 64

#: the README's swap colligation over Y = 0.5 at tau = (1, 1)
SWAP_MODEL = {
    "dim": 1,
    "tau": [[1.0, 0.0], [1.0, 0.0]],
    "Y": {"rows": 1, "cols": 1, "re": [0.5], "im": [0.0]},
    "V": {"rows": 2, "cols": 2, "re": [0.0, 1.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]},
}


def matrix_doc(a: np.ndarray) -> dict:
    rows, cols = a.shape
    return {
        "rows": rows,
        "cols": cols,
        "re": [float(x) for x in a.real.ravel()],
        "im": [float(x) for x in a.imag.ravel()],
    }


def spectrum(kind: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenvalues of Y: endpoints only, interior only, or both."""
    if kind == "projection":
        return rng.integers(0, 2, size=dim).astype(float)
    if kind == "interior" or dim == 1:
        return rng.uniform(0.05, 0.95, size=dim)
    vals = np.concatenate([[float(rng.integers(0, 2))], rng.uniform(0.05, 0.95, size=dim - 1)])
    rng.shuffle(vals)
    return vals


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def model_doc(eigenvalues: np.ndarray, tau, rng: np.random.Generator) -> dict:
    """A positive contraction with the given spectrum and a random unitary colligation."""
    dim = eigenvalues.size
    q = random_unitary(dim, rng)
    y = (q * eigenvalues) @ q.conj().T
    y = (y + y.conj().T) / 2
    v = random_unitary(dim + 1, rng)
    return {
        "dim": dim,
        "tau": [[tau[0].real, tau[0].imag], [tau[1].real, tau[1].imag]],
        "Y": matrix_doc(y),
        "V": matrix_doc(v),
    }


def corpus_docs(seed: int) -> list[tuple[str, dict]]:
    """The corpus: 24 generated models of dims 1..24 plus the swap model."""
    rng = np.random.default_rng([seed, 1])
    docs = []
    for i in range(CORPUS_MODELS):
        dim = 1 + (7 * i) % CORPUS_MAX_DIM
        kind = SPECTRUM_KINDS[i % len(SPECTRUM_KINDS)]
        doc = model_doc(spectrum(kind, dim, rng), TAUS[i % len(TAUS)], rng)
        docs.append((f"m{i:02d}-{kind}-d{dim}", doc))
    docs.append(("swap", SWAP_MODEL))
    return docs


def desk_docs(seed: int) -> list[tuple[str, dict]]:
    rng = np.random.default_rng([seed, 2])
    eigenvalues = np.concatenate([np.ones(8), np.zeros(8), rng.uniform(0.05, 0.95, DESK_DIM - 16)])
    return [("desk64", model_doc(eigenvalues, TAUS[0], rng))]


def write_models(docs: list[tuple[str, dict]], workdir: Path) -> list[Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in docs:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return paths


def read_model(path: Path) -> tuple[np.ndarray, np.ndarray, tuple[complex, complex]]:
    """(Y, V, tau) of a model file, parsed without caralab."""
    doc = json.loads(Path(path).read_text())

    def mat(m):
        re = np.asarray(m["re"], dtype=float)
        im = np.asarray(m.get("im", np.zeros_like(re)), dtype=float)
        return (re + 1j * im).reshape(m["rows"], m["cols"])

    (a, b), (c, d) = doc["tau"]
    return mat(doc["Y"]), mat(doc["V"]), (complex(a, b), complex(c, d))

"""Byte-for-byte comparison of the lowdin-kit CLI between two source trees.

    python tools/cli_compare.py write DIR
    python tools/cli_compare.py run DIR SRC OUT.json [NAME ...]
    python tools/cli_compare.py compare A.json B.json

`write` writes a seeded corpus of input files to DIR, with the list of
commands that use them in DIR/commands.json: `orthogonalize` bases at
d = 2 ... 64 and 256 with all three methods, `--order` and `--out`; `weights` pure
states and complex density matrices at d = 2 ... 32 over dense and pairwise
Grams; sweeps over both families, failing steps included (among them a
degenerate Tr(O rho) and an overflowing a+ O a, refused on replay); `weights`
states on both sides of the bounds below which a+ O a and Tr rho are summed
without np.errstate; `paper-check`;
malformed inputs (text, bools, null, 3-element pairs, 10**400, NaN and
Infinity literals, dim below 2, ...); zeros whose signs eigh reads
(purely imaginary overlaps and rho off-diagonals with -0.0 real parts, a
pairwise Gram with an unspecified pair, exactly orthogonal basis columns);
echoed extra keys of ints and edge floats (signed zeros, e+12 to e+16,
subnormals, inf, nan); and a basis with exact zeros under `--order`.
The corpus depends only on numpy and the seed, not on the code under test.

`run` runs each command (or only the NAMEs given) as `python -m lowdin_kit`
with PYTHONPATH=SRC and one BLAS thread, in a private copy of DIR, so that
every path in a message is relative and the same for any tree, and runs on
one DIR at the same time leave each other's files alone. It records the exit
code and the sha256 of stdout, stderr and every file the command wrote under
out/, and the environment the bytes depend on: numpy's version, the BLAS
library numpy reports and the BLAS thread count.

`compare` refuses two runs whose environments differ, as their bytes may
differ whatever the code. Otherwise it prints each command whose record
differs between them, or that only one run has. It exits 1 on a refusal or
on any difference.

A typical check of a change against its parent commit:

    git worktree add /tmp/parent HEAD~1
    python tools/cli_compare.py write /tmp/corpus
    python tools/cli_compare.py run /tmp/corpus /tmp/parent/src /tmp/parent.json
    python tools/cli_compare.py run /tmp/corpus src /tmp/change.json
    python tools/cli_compare.py compare /tmp/parent.json /tmp/change.json
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 20260921
BLAS_THREADS = "1"
ORTHO_DIMS = (2, 3, 4, 8, 16, 32, 64)
STATE_DIMS = (2, 3, 4, 8, 16, 32)
METHODS = ("gram-schmidt", "lowdin-sym", "lowdin-can")


def _pairs(z) -> list:
    z = np.asarray(z, dtype=complex).ravel()
    return np.stack((z.real, z.imag), -1).tolist()


def _unit_columns(rng, n: int, d: int) -> np.ndarray:
    c = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return c / np.linalg.norm(c, axis=0)


def _basis(cols: np.ndarray) -> dict:
    return {"ambient_dim": cols.shape[0], "vectors": [_pairs(c) for c in cols.T]}


def _gram(o: np.ndarray, dense: bool) -> dict:
    d = o.shape[0]
    if dense:
        return {"dim": d, "matrix": _pairs(o)}
    return {"dim": d, "overlaps": [[i + 1, j + 1, o[i, j].real, o[i, j].imag]
                                   for i in range(d) for j in range(i + 1, d)]}


def _overlap(rng, d: int) -> np.ndarray:
    """Unit-diagonal Hermitian positive-definite O of d random unit columns."""
    c = _unit_columns(rng, d + 2, d)
    o = c.conj().T @ c
    o = 0.5 * (o + o.conj().T)
    np.fill_diagonal(o, 1.0)
    return o


def _density(rng, d: int, rank: int) -> np.ndarray:
    x = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = x @ x.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _corpus(rng) -> tuple[dict, list]:
    """Input files (name -> JSON object, or raw text) and (name, argv) commands."""
    files, commands = {}, []

    def add(name, argv, **inputs):
        files.update(inputs)
        commands.append((name, argv))

    # orthogonalize: every method at every d, --out, --order, near-dependent bases.
    def add_ortho(d):
        f = f"basis_d{d}.json"
        files[f] = _basis(_unit_columns(rng, d + 2 if d < 32 else d, d))
        for m in METHODS:
            add(f"ortho.d{d}.{m}", ["orthogonalize", "--basis", f, "--method", m])
        add(f"ortho.d{d}.gs.order", ["orthogonalize", "--basis", f, "--method", "gram-schmidt",
                                     "--order", ",".join(map(str, range(d, 0, -1)))])

    for d in ORTHO_DIMS:
        add_ortho(d)
    for m in METHODS:
        add(f"ortho.d8.{m}.out", ["orthogonalize", "--basis", "basis_d8.json", "--method", m,
                                  "--out", f"out/ortho.{m}.json"])
    files["basis_real.json"] = _basis(np.array([[1.0, 0.6], [0.0, 0.8]]))
    for m in METHODS:
        add(f"ortho.real.{m}", ["orthogonalize", "--basis", "basis_real.json", "--method", m])
    g, e = rng.standard_normal((16, 1)), rng.standard_normal((16, 8))
    for k, eps in enumerate((1e-2, 1e-4, 1e-6, 1e-8)):
        cols = g + eps * e
        files[f"basis_near{k}.json"] = _basis(cols / np.linalg.norm(cols, axis=0))
        for m in METHODS:
            add(f"ortho.near{k}.{m}", ["orthogonalize", "--basis", f"basis_near{k}.json", "--method", m])
    for name, order in (("lowdin", None), ("letters", "1,x"), ("repeat", "1,1"), ("short", "1")):
        argv = ["orthogonalize", "--basis", "basis_d2.json", "--method", "gram-schmidt", "--order", order]
        if order is None:
            argv[4:] = ["lowdin-sym", "--order", "2,1"]
        add(f"ortho.order.{name}", argv)

    plane = [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]]]
    bad_bases = {
        "text": {"ambient_dim": 2, "vectors": [[["1", 0.0], [0.0, 0.0]], plane[1]]},
        "bool": {"ambient_dim": 2, "vectors": [[[True, 0.0], [0.0, 0.0]], plane[1]]},
        "null": {"ambient_dim": 2, "vectors": [[[None, 0.0], [0.0, 0.0]], plane[1]]},
        "triple": {"ambient_dim": 2, "vectors": [[[1.0, 0.0, 0.0], [0.0, 0.0]], plane[1]]},
        "unnormalized": {"ambient_dim": 2, "vectors": [[[2.0, 0.0], [0.0, 0.0]], plane[1]]},
        "dependent": {"ambient_dim": 2, "vectors": [plane[1], plane[1]]},
        "ambient": {"ambient_dim": 3, "vectors": plane},
        "empty": {"ambient_dim": 2, "vectors": []},
        "not_object": [plane],
        "huge_int": '{"ambient_dim": 2, "vectors": [[[10' + "0" * 400 + ', 0], [0, 0]], [[0, 0], [1, 0]]]}',
        "nan": '{"ambient_dim": 2, "vectors": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}',
        "infinity": '{"ambient_dim": 2, "vectors": [[[Infinity, 0], [0, 0]], [[0, 0], [1, 0]]]}',
        "bad_json": '{"ambient_dim": 2, "vectors": [',
    }
    for name, obj in bad_bases.items():
        add(f"ortho.bad.{name}", ["orthogonalize", "--basis", f"bad_basis_{name}.json",
                                  "--method", "lowdin-sym"], **{f"bad_basis_{name}.json": obj})
    add("ortho.missing_file", ["orthogonalize", "--basis", "no_such_file.json", "--method", "lowdin-sym"])

    # weights: pure and complex rho (rank 1, rank 3, full) over dense and pairwise Grams.
    for d in STATE_DIMS:
        o = _overlap(rng, d)
        pure = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rhos = {"rank1": _density(rng, d, 1), "rank3": _density(rng, d, min(d, 3)), "full": _density(rng, d, d)}
        for form in ("pairwise", "dense"):
            gram = _gram(o, form == "dense")
            f = f"state_d{d}_{form}_pure.json"
            add(f"weights.d{d}.{form}.pure", ["weights", "--state", f], **{f: {"gram": gram, "pure": _pairs(pure)}})
            for kind, rho in rhos.items():
                f = f"state_d{d}_{form}_rho_{kind}.json"
                add(f"weights.d{d}.{form}.rho.{kind}", ["weights", "--state", f],
                    **{f: {"gram": gram, "rho": _pairs(rho)}})
    add("weights.d8.pure.out", ["weights", "--state", "state_d8_dense_pure.json", "--out", "out/pure.json"])
    add("weights.d8.rho.out", ["weights", "--state", "state_d8_dense_rho_full.json", "--out", "out/rho.json"])

    s2 = {"dim": 2, "overlaps": [[1, 2, 0.3, 0.2]]}
    rho2 = [[0.6, 0.0], [0.1, 0.2], [0.1, -0.2], [0.4, 0.0]]
    # rho = (1 + e) u_min u_min+ - e u_max u_max+ over a nearly singular O passes
    # the -1e-10 PSD floor, but its rho_L has a weight of about -2e-5, which
    # the weight-sum check refuses.
    s, t, e = 1 - 1e-6, 0.3, 9e-11
    u = np.linalg.eigh(np.array([[1, s, t], [s, 1, t], [t, t, 1]]))[1]
    clipped = (1 + e) * np.outer(u[:, 0], u[:, 0]) - e * np.outer(u[:, -1], u[:, -1])
    bad_states = {
        "zero_pure": {"gram": s2, "pure": [[0.0, 0.0], [0.0, 0.0]]},
        "trace": {"gram": s2, "rho": [[0.7, 0.0], [0.1, 0.2], [0.1, -0.2], [0.4, 0.0]]},
        "not_psd": {"gram": s2, "rho": [[0.5, 0.0], [0.9, 0.0], [0.9, 0.0], [0.5, 0.0]]},
        "not_hermitian": {"gram": s2, "rho": [[0.6, 0.0], [0.1, 0.2], [0.1, 0.2], [0.4, 0.0]]},
        "clipped_weight": {"gram": {"dim": 3, "overlaps": [[1, 2, s, 0], [1, 3, t, 0], [2, 3, t, 0]]},
                           "rho": _pairs(clipped)},
        "overlap_one": {"gram": {"dim": 2, "overlaps": [[1, 2, 1.0, 0.0]]}, "rho": rho2},
        "dense_diagonal": {"gram": {"dim": 2, "matrix": [[1.1, 0], [0.3, 0], [0.3, 0], [1, 0]]}, "rho": rho2},
        "dense_not_hermitian": {"gram": {"dim": 2, "matrix": [[1, 0], [0.3, 0], [0.2, 0], [1, 0]]}, "rho": rho2},
        "dense_not_pd": {"gram": {"dim": 3, "matrix": _pairs([[1, .9, .9], [.9, 1, -.9], [.9, -.9, 1]])},
                         "pure": [[1, 0], [0, 0], [0, 0]]},
        "both": {"gram": s2, "pure": [[1, 0], [0, 0]], "rho": rho2},
        "neither": {"gram": s2},
        "no_gram": {"pure": [[1, 0], [0, 0]]},
        "length": {"gram": s2, "pure": [[1, 0], [0, 0], [0, 0]]},
        "rho_entries": {"gram": s2, "rho": rho2[:3]},
        "text": {"gram": s2, "pure": [["1", 0], [0, 0]]},
        "bool": {"gram": s2, "pure": [[True, 0], [0, 0]]},
        "null": {"gram": s2, "rho": [[None, 0], [0.1, 0.2], [0.1, -0.2], [0.4, 0.0]]},
        "triple": {"gram": s2, "pure": [[1, 0, 0], [0, 0]]},
        "overlap_text": {"gram": {"dim": 2, "overlaps": [[1, 2, "0.3", 0]]}, "rho": rho2},
        "overlap_triple": {"gram": {"dim": 2, "overlaps": [[1, 2, 0.3]]}, "rho": rho2},
        "overlap_index": {"gram": {"dim": 2, "overlaps": [[2, 1, 0.3, 0]]}, "rho": rho2},
        "dim_text": {"gram": {"dim": "2", "overlaps": []}, "rho": rho2},
        "huge_int": '{"gram": {"dim": 2, "overlaps": []}, "pure": [[10' + "0" * 400 + ", 0], [0, 0]]}",
        "huge_overlap": '{"gram": {"dim": 2, "overlaps": [[1, 2, 10' + "0" * 400 + ', 0]]}, "pure": [[1, 0], [0, 0]]}',
        "nan": '{"gram": {"dim": 2, "overlaps": []}, "pure": [[NaN, 0], [0, 0]]}',
        "infinity": '{"gram": {"dim": 2, "overlaps": [[1, 2, -Infinity, 0]]}, "pure": [[1, 0], [0, 0]]}',
    }
    for dim in (-2, -1, 0, 1):
        for form, gram in (("pairwise", {"dim": dim, "overlaps": []}),
                           ("dense", {"dim": dim, "matrix": [[1, 0]] * max(dim * dim, 1)})):
            bad_states[f"dim{dim}_{form}_pure"] = {"gram": gram, "pure": [[1, 0], [0, 0]]}
            bad_states[f"dim{dim}_{form}_rho"] = {"gram": gram, "rho": rho2}
    for name, obj in bad_states.items():
        add(f"weights.bad.{name}", ["weights", "--state", f"bad_state_{name}.json"],
            **{f"bad_state_{name}.json": obj})

    # sweep: both families, steps that fail, blocks of steps, malformed specs.
    sweeps = {
        "pure_s": {"parameter": "s", "range": [-0.9, 0.9], "steps": 37, "fixed": {"gamma": 0.7}},
        "pure_gamma": {"parameter": "gamma", "range": [-3.0, 3.0], "steps": 41, "fixed": {"s": 0.4}},
        "pure_gamma_negative": {"parameter": "gamma", "range": [-2.0, 0.0], "steps": 11, "fixed": {"s": 0.5}},
        "pure_singular": {"parameter": "s", "range": [0.5, 0.9999999999999], "steps": 9, "fixed": {"gamma": 1.0}},
        "density_p": {"parameter": "p", "range": [0.0, 1.0], "steps": 21, "fixed": {"q": 0.1, "s": 0.3}},
        "density_q": {"parameter": "q", "range": [-0.2, 0.2], "steps": 17, "fixed": {"p": 0.6, "s": -0.3}},
        "density_s": {"parameter": "s", "range": [-0.95, 0.95], "steps": 39, "fixed": {"p": 0.3, "q": 0.2}},
        "density_not_psd": {"parameter": "q", "range": [0.0, 0.9], "steps": 10, "fixed": {"p": 0.5, "s": 0.2}},
        "density_blocks": {"parameter": "s", "range": [-0.99, 0.99], "steps": 9001, "fixed": {"p": 0.7, "q": -0.1}},
        "pure_blocks": {"parameter": "s", "range": [-0.99, 0.99], "steps": 4100, "fixed": {"gamma": -0.3}},
        "out_field": {"parameter": "s", "range": [-0.5, 0.5], "steps": 5, "fixed": {"gamma": 2.0},
                      "out": "out/field.csv"},
        "bad_missing": {"parameter": "s", "range": [-0.5, 0.5]},
        "bad_parameter": {"parameter": "t", "range": [-0.5, 0.5], "steps": 5, "fixed": {"gamma": 2.0}},
        "bad_steps": {"parameter": "s", "range": [-0.5, 0.5], "steps": 1, "fixed": {"gamma": 2.0}},
        "bad_range": {"parameter": "s", "range": [0.5, -0.5], "steps": 5, "fixed": {"gamma": 2.0}},
        "bad_domain": {"parameter": "s", "range": [-0.5, 1.5], "steps": 5, "fixed": {"gamma": 2.0}},
        "bad_family": {"parameter": "s", "range": [-0.5, 0.5], "steps": 5, "fixed": {"p": 0.5}},
        "bad_text": {"parameter": "s", "range": ["-0.5", 0.5], "steps": 5, "fixed": {"gamma": 2.0}},
        "bad_bool": {"parameter": "s", "range": [-0.5, 0.5], "steps": 5, "fixed": {"gamma": True}},
        "bad_null": {"parameter": "s", "range": [-0.5, None], "steps": 5, "fixed": {"gamma": 2.0}},
        "bad_no_out": {"parameter": "s", "range": [-0.5, 0.5], "steps": 5, "fixed": {"gamma": 2.0}},
        "bad_huge_int": '{"parameter": "s", "range": [-0.5, 0.5], "steps": 5, "fixed": {"gamma": 1' + "0" * 400 + "}}",
        "bad_nan": '{"parameter": "s", "range": [-0.5, 0.5], "steps": 5, "fixed": {"gamma": NaN}}',
    }
    for name, obj in sweeps.items():
        argv = ["sweep", "--spec", f"sweep_{name}.json"]
        if name not in ("out_field", "bad_no_out"):
            argv += ["--out", f"out/{name}.csv"]
        add(f"sweep.{name}", argv, **{f"sweep_{name}.json": obj})

    add("paper-check", ["paper-check"])
    add("argparse.no_command", [])
    add("argparse.bad_method", ["orthogonalize", "--basis", "basis_d2.json", "--method", "qr"])
    add("argparse.no_state", ["weights"])
    # d = 256, where numpy's blocked BLAS paths begin. Drawn last, so that
    # the files above are the same as before it was added.
    add_ortho(256)
    # Signed zeros, which eigh reads: drawn after d = 256 for the same reason.
    # Purely imaginary overlaps written as 1j * x carry -0.0 real parts for x < 0.
    for d in (5, 16):
        a = rng.standard_normal((d, d))
        a = (a - a.T) / (2 * np.linalg.norm(a - a.T, 2))
        o = 1j * a
        np.fill_diagonal(o, 1.0)
        pure = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        f = f"state_d{d}_imaginary"
        add(f"weights.zero_real.d{d}.pure", ["weights", "--state", f"{f}_pure.json"],
            **{f"{f}_pure.json": {"gram": _gram(o, True), "pure": _pairs(pure)}})
        add(f"weights.zero_real.d{d}.rho", ["weights", "--state", f"{f}_rho.json"],
            **{f"{f}_rho.json": {"gram": _gram(o, True), "rho": _pairs(_density(rng, d, d))}})
    b = rng.standard_normal((4, 4))
    rho = 1j * (b - b.T) / (8 * np.linalg.norm(b - b.T, 2))
    np.fill_diagonal(rho, 0.25)
    add("weights.zero_real.rho_offdiagonal", ["weights", "--state", "state_d4_rho_imaginary.json"],
        **{"state_d4_rho_imaginary.json": {"gram": _gram(_overlap(rng, 4), True), "rho": _pairs(rho)}})
    # A pairwise Gram with the pair (1, 3) unspecified, so O_13 = 0: halving the
    # off-diagonal keeps it positive definite.
    o = 0.5 * (_overlap(rng, 4) + np.eye(4))
    o[0, 2] = o[2, 0] = 0.0
    gram = _gram(o, False)
    gram["overlaps"] = [p for p in gram["overlaps"] if p[:2] != [1, 3]]
    pure = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    add("weights.unspecified_pair.pure", ["weights", "--state", "state_unspecified_pure.json"],
        **{"state_unspecified_pure.json": {"gram": gram, "pure": _pairs(pure)}})
    add("weights.unspecified_pair.rho", ["weights", "--state", "state_unspecified_rho.json"],
        **{"state_unspecified_rho.json": {"gram": gram, "rho": _pairs(_density(rng, 4, 3))}})
    # Columns 1, 2 and 3, 4 on disjoint rows: exactly orthogonal pairs.
    cols = _unit_columns(rng, 8, 4)
    cols[4:, 0] = cols[:4, 1] = cols[4:, 2] = cols[:4, 3] = 0.0
    files["basis_orthogonal_pairs.json"] = _basis(cols / np.linalg.norm(cols, axis=0))
    for m in METHODS:
        add(f"ortho.orthogonal_pairs.{m}", ["orthogonalize", "--basis", "basis_orthogonal_pairs.json", "--method", m])
    # Numbers on each edge of the report writer's one-format path, echoed from
    # an extra key: ints, signed zeros, e+12 to e+16, subnormals, the largest
    # double, inf and nan. Drawn after the signed zeros, for the same reason.
    edges = [0, 3, -7, 2**53 + 1, 0.0, -0.0, 1.0, -7.0, 999999999999.5, 1e12, 1e13, 1e15, 1e16, 5e-324,
             -2.225073858507e-308, 1e-310, 1.7976931348623157e308, float("inf"), float("nan"), 0.1]
    note = {"edges": edges, "pairs": [edges[k:k + 2] for k in range(0, len(edges), 2)], "dim": 3}
    files["basis_echo_edges.json"] = {**_basis(_unit_columns(rng, 5, 4)), "note": note}
    for m in METHODS:
        add(f"ortho.echo_edges.{m}", ["orthogonalize", "--basis", "basis_echo_edges.json", "--method", m])
    o = _overlap(rng, 3)
    pure = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    add("weights.echo_edges.pure", ["weights", "--state", "state_echo_edges_pure.json"],
        **{"state_echo_edges_pure.json": {"gram": _gram(o, True), "pure": _pairs(pure), "note": note}})
    add("weights.echo_edges.rho", ["weights", "--state", "state_echo_edges_rho.json"],
        **{"state_echo_edges_rho.json": {"gram": _gram(o, False), "rho": _pairs(_density(rng, 3, 2)), "note": note}})
    # Exact zeros below the diagonal and in the first row's imaginary parts, in
    # a processing order that is not the natural one.
    cols = np.triu(_unit_columns(rng, 6, 6))
    cols[0] = cols[0].real
    files["basis_zeros.json"] = _basis(cols / np.linalg.norm(cols, axis=0))
    for m in METHODS:
        add(f"ortho.zeros.{m}", ["orthogonalize", "--basis", "basis_zeros.json", "--method", m])
    add("ortho.zeros.gs.order", ["orthogonalize", "--basis", "basis_zeros.json", "--method", "gram-schmidt",
                                 "--order", "4,1,6,2,5,3"])
    # Sweeps whose first unproven step the library refuses on replay: Tr(O rho)
    # below its floor (exit 3) and an overflowing a+ O a (exit 2). Added last.
    refusals = {
        "density_degenerate": {"parameter": "s", "range": [0.99999999998, 0.99999999999], "steps": 5,
                               "fixed": {"p": 0.5, "q": -0.500000000005}},
        "pure_overflow": {"parameter": "gamma", "range": [1e154, 1e155], "steps": 5, "fixed": {"s": 0.3}},
    }
    for name, obj in refusals.items():
        add(f"sweep.{name}", ["sweep", "--spec", f"sweep_{name}.json", "--out", f"out/{name}.csv"],
            **{f"sweep_{name}.json": obj})
    # States on both sides of the guards that decide where a+ O a and Tr rho
    # are summed under np.errstate: (d + 1) |a|^2 just below and just above
    # 1e300, an a+ O a that overflows with |a|^2 and one that overflows alone,
    # and a rho whose ||rho||_F overflows, with a finite and an infinite trace.
    # Added last.
    guards = {}
    for d in (2, 32):
        o = _overlap(rng, d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        for side, sign in (("below", -1), ("above", 1)):
            a = v * np.sqrt(1e300 * (1 + sign * 1e-6) / ((d + 1) * np.vdot(v, v).real))
            guards[f"pure.d{d}.{side}"] = {"gram": _gram(o, True), "pure": _pairs(a)}
    guards["pure.overflow"] = {"gram": {"dim": 2, "overlaps": [[1, 2, 0.5, 0.0]]}, "pure": _pairs([1e155, 1e155])}
    guards["pure.overflow_finite_length"] = {"gram": _gram(0.1 * np.eye(32) + 0.9, True),
                                             "pure": _pairs(np.full(32, np.sqrt(1.8e306)))}
    identity = {"dim": 3, "overlaps": []}
    guards["rho.overflow_finite_trace"] = {"gram": identity, "rho": _pairs([[1e200, 1, 1], [1, -1e200, 1], [1, 1, 1]])}
    guards["rho.overflow_infinite_trace"] = {"gram": identity, "rho": _pairs(np.diag([1e308, 1e308, 1.0]))}
    for name, obj in guards.items():
        f = f"state_guard_{name.replace('.', '_')}.json"
        add(f"weights.guard.{name}", ["weights", "--state", f], **{f: obj})
    return files, commands


def write(directory: Path) -> None:
    files, commands = _corpus(np.random.default_rng(SEED))
    directory.mkdir(parents=True, exist_ok=True)
    for name, obj in files.items():
        text = obj if isinstance(obj, str) else json.dumps(obj)
        (directory / name).write_text(text, encoding="utf-8")
    manifest = {"seed": SEED, "commands": [{"name": n, "argv": a} for n, a in commands]}
    (directory / "commands.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _environment() -> dict:
    """What a command's bytes depend on besides the code: numpy, the BLAS
    library numpy reports, and the BLAS thread count run pins."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except TypeError:  # numpy < 1.26 has no mode; its config module names the libraries
        info = np.__config__.get_info("blas_ilp64_opt") or np.__config__.get_info("blas_opt")
        blas = ",".join(sorted(set(info.get("libraries", ())))) or "unknown"
    return {"numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


def run(directory: Path, src: Path, names: list[str]) -> dict:
    commands = json.loads((directory / "commands.json").read_text(encoding="utf-8"))["commands"]
    if names:
        unknown = set(names) - {c["name"] for c in commands}
        if unknown:
            raise SystemExit(f"unknown command names: {sorted(unknown)}")
        commands = [c for c in commands if c["name"] in names]
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = shutil.copytree(directory, Path(tmp) / "corpus")
        out_dir = work / "out"
        for c in commands:
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir()
            proc = subprocess.run([sys.executable, "-m", "lowdin_kit", *c["argv"]], cwd=work,
                                  env=env, capture_output=True, check=False)
            records[c["name"]] = {
                "exit": proc.returncode,
                "stdout": _sha256(proc.stdout),
                "stderr": _sha256(proc.stderr),
                "files": {p.name: _sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())},
            }
    return {"environment": _environment(), "commands": records}


def compare(a: dict, b: dict) -> int:
    """Number of commands whose records differ or that only one run has."""
    differ = 0
    for name in sorted(set(a) | set(b)):
        ra, rb = a.get(name), b.get(name)
        if ra == rb:
            continue
        differ += 1
        if ra is None or rb is None:
            print(f"{name}: only in {'B' if ra is None else 'A'}")
        else:
            fields = [k for k in ra if ra[k] != rb.get(k)]
            print(f"{name}: {', '.join(fields)} differ (exit {ra['exit']} -> {rb['exit']})")
    print(f"{differ} of {len(set(a) | set(b))} commands differ")
    return differ


def main(argv: list[str]) -> int:
    usage = __doc__.split("\n\n")[1]
    if argv[:1] == ["write"] and len(argv) == 2:
        write(Path(argv[1]))
        return 0
    if argv[:1] == ["run"] and len(argv) >= 4:
        result = run(Path(argv[1]), Path(argv[2]), argv[4:])
        Path(argv[3]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        codes = [r["exit"] for r in result["commands"].values()]
        print(f"{len(codes)} commands: " + ", ".join(f"exit {k}: {codes.count(k)}" for k in sorted(set(codes))))
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
        if a.get("environment") != b.get("environment"):
            print(f"refused: the runs' environments differ: {a.get('environment')} != {b.get('environment')}",
                  file=sys.stderr)
            return 1
        return 1 if compare(a["commands"], b["commands"]) else 0
    print(usage, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

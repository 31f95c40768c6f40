"""Hand-made mutants of the hand-written backward code and of the finite checks,
each run against its pins.

    python tests/mutants.py            # every mutant
    python tests/mutants.py gat        # the mutants whose name contains "gat"
    python tests/mutants.py --list

Run it from the root of a source checkout. It copies `src/`, `tests/` and
`perfbench/` into a temporary directory, checks that the pinning tests pass
there unmutated, then applies one mutant at a time (an exact text
replacement that must match once in its file) and runs that mutant's pins
with pytest. A mutant is caught when its pins fail. The script prints one
line per mutant and exits 1 if any mutant survives, no longer applies, or
breaks collection instead of failing a test.

The file is not named `test_*.py`, so the tier-1 run does not collect it;
tier-1's `tests/test_mutants.py` checks only that every mutant still
applies and every pin names an existing test.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FUSION = "src/stockfuse/fusion.py"
AUTODIFF = "src/stockfuse/autodiff.py"
ENCODERS = "src/stockfuse/encoders.py"
PREDICTOR = "src/stockfuse/predictor.py"
MODEL = "src/stockfuse/model.py"
TRAINING = "src/stockfuse/training.py"

STAGE_PINS = (
    "tests/test_fusion.py::TestBlockCrossAttention",
    "tests/test_fusion.py::TestBlockGatedSelection",
    "tests/test_fusion.py::TestSourceRows",
    "tests/test_fusion.py::TestQueryMap",
    "tests/test_fusion.py::TestTiles",
    "tests/test_fusion.py::TestValueRowBias",
    "tests/test_fusion.py::TestKeyMajorScores",
    "tests/test_model.py::test_model_grad_check_every_parameter",
    "tests/test_model.py::test_model_grad_check_through_source_rows",
)
GAT_PINS = ("tests/test_encoders.py::TestBlockGat", "tests/test_encoders.py::TestLiftedGat")
TIME_PINS = (
    "tests/test_predictor.py::TestAggregateTime",
    "tests/test_predictor.py::test_block_reduce_time_matches_per_window",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    pins: tuple[str, ...]


MUTANTS = [
    # block_cross_attention: gate, softmax, folded maps, source-row scatter
    Mutant("stage: gate derivative without h", FUSION,
           "                d_pre[a:b] *= out[a:b]\n", "                d_pre[a:b] *= gate[a:b]\n",
           STAGE_PINS),
    Mutant("stage: h gradient not scaled by the gate", FUSION,
           "np.multiply(g_t, gate[a:b], out=dh_t)", "np.copyto(dh_t, g_t)", STAGE_PINS),
    Mutant("stage: gate bias gradient from d_h", FUSION,
           "ad.add_grad(gate_p.b_b.tensor, d_pre.sum(axis=0, keepdims=True))",
           "ad.add_grad(gate_p.b_b.tensor, d_h.sum(axis=0, keepdims=True))", STAGE_PINS),
    Mutant("stage: no softmax row term", FUSION,
           "            ds -= dot\n", "            ds -= 0.0\n", STAGE_PINS),
    Mutant("stage: mixing gradient without the attention transpose", FUSION,
           "np.matmul(by_key(s), dh3,", "np.matmul(by_query(s), dh3,", STAGE_PINS),
    Mutant("stage: kv score gradient without the transpose", FUSION,
           "np.matmul(by_key(ds), x3,", "np.matmul(by_query(ds), x3,", STAGE_PINS),
    # key-major scores: scores[j, w*block + i] is query row i of window w on key j
    Mutant("stage: softmax reduced over the wrong axis of the key-major scores", FUSION,
           "            s /= m\n", "            s /= s.sum(axis=1, keepdims=True)\n", STAGE_PINS),
    Mutant("stage: mixing reads the key-major scores untransposed", FUSION,
           "np.matmul(by_query(s), v3,", "np.matmul(by_key(s), v3,", STAGE_PINS),
    # b_a on the value rows
    Mutant("stage: b_a added twice", FUSION,
           "    yn += gate_p.b_a.values\n",
           "    yn += gate_p.b_a.values\n    yn += gate_p.b_a.values\n", STAGE_PINS),
    Mutant("stage: b_a added to the gated output rows, not the value rows", FUSION,
           "            h *= g_t\n",
           "            h -= gate_p.b_a.values\n            h *= g_t\n"
           "            h += gate_p.b_a.values\n", STAGE_PINS),
    Mutant("stage: b_a's gradient skips the gate", FUSION,
           "ad.add_grad(gate_p.b_a.tensor, d_yn.sum(axis=0, keepdims=True))",
           "ad.add_grad(gate_p.b_a.tensor, g.sum(axis=0, keepdims=True))", STAGE_PINS),
    Mutant("stage: kv score gradient dropped", FUSION,
           "                d_kv += d_k @ p_fold\n", "                d_kv += 0.0 * (d_k @ p_fold)\n",
           STAGE_PINS),
    Mutant("stage: key rows read P untransposed", FUSION,
           "y_pt = y @ p_fold.T", "y_pt = y @ p_fold", STAGE_PINS),
    Mutant("stage: query gradient without the gate term", FUSION,
           "ad.add_grad(query_st, d_pre @ w_b.T)",
           "ad.add_grad(query_st, 0.0 * (d_pre @ w_b.T))", STAGE_PINS),
    Mutant("stage: W_b's gradient reads the kv rows", FUSION,
           "ad.add_grad(wb_node, x.T @ d_pre)", "ad.add_grad(wb_node, y.T @ d_pre)", STAGE_PINS),
    Mutant("stage: P's gradient reads the query rows", FUSION,
           "ad.add_grad(p_node, d_k.T @ y)", "ad.add_grad(p_node, d_k.T @ x)", STAGE_PINS),
    Mutant("stage: N's gradient reads the query rows", FUSION,
           "ad.add_grad(n_node, y.T @ d_yn)", "ad.add_grad(n_node, x.T @ d_yn)", STAGE_PINS),
    Mutant("stage: query score gradient scattered through the kv index", FUSION,
           "_to_source(d_q, q_idx, len(x))",
           "_to_source(d_q, q_idx if kv_idx is None else kv_idx, len(x))", STAGE_PINS),
    Mutant("stage: key-row gradient scattered through the query index", FUSION,
           "d_k = _to_source(d_k, kv_idx, len(y))",
           "d_k = _to_source(d_k, kv_idx if q_idx is None else q_idx, len(y))", STAGE_PINS),
    Mutant("stage: query map gets no gradient on the gate path", FUSION,
           "wb_node = on_query(gate_p.w_b.tensor)",
           "wb_node = on_query(gate_p.w_b.tensor) if query_map is None else"
           " ad.matmul(Tensor(query_map.values), gate_p.w_b.tensor)", STAGE_PINS),
    Mutant("stage: query map gets no gradient on the score path", FUSION,
           "        p_node = on_query(ad.scale(\n",
           "        p_node = (on_query if query_map is None else"
           " lambda w: ad.matmul(Tensor(query_map.values), w))(ad.scale(\n", STAGE_PINS),
    Mutant("stage: gate gradient left in window rows", FUSION,
           "            d_pre = _to_source(d_pre, q_idx, len(x))\n", "", STAGE_PINS),
    Mutant("stage: repeated windows scattered by column", FUSION,
           "ad.scatter_add_windows(out, index, g, ad.distinct_columns(index))",
           "ad.scatter_add_windows(out, index, g, True)", STAGE_PINS),
    # block_cross_attention's tiles
    Mutant("stage: the last partial tile is skipped", FUSION,
           "for w0 in range(0, n_blocks, per_tile)]",
           "for w0 in range(0, n_blocks // per_tile * per_tile, per_tile)]", STAGE_PINS),
    Mutant("stage: a tile reads the previous tile's key rows", FUSION,
           "k3, v3 = (window_rows(mapped, kv_idx, buf[at], w0, w1)",
           "k3, v3 = (window_rows(mapped, kv_idx, buf[at], *((w0, w1) if mapped is yn or w0 == 0"
           " else (w0 - per_tile, w1 - per_tile)))", STAGE_PINS),
    Mutant("stage: a tile's query gradient written at the wrong offset", FUSION,
           "out=d_q[a:b].reshape(nw, block, r)", "out=d_q[: b - a].reshape(nw, block, r)",
           STAGE_PINS),
    Mutant("stage: taped tiles written at the start of the whole-row arrays", FUSION,
           "at = slice(a, b) if whole else slice(0, b - a)", "at = slice(0, b - a)",
           STAGE_PINS),
    Mutant("stage: off-tape diagnostics keep only a tile", FUSION,
           "whole = ad.grad_enabled() or diagnostics", "whole = ad.grad_enabled()",
           ("tests/test_model.py::test_diagnostics_off_the_tape_equal_the_taped_call",
            "tests/test_fusion.py::TestTiles")),
    # the variant table: what a variant holds is what it reads
    Mutant("model: a variant keeps the groups it drops", MODEL,
           "return not set(groups) & set(DROPPED[variant])", "return True",
           ("tests/test_model.py::test_every_held_parameter_gets_a_gradient",)),
    Mutant("model: glu_fusion drops the gate map it reads", MODEL,
           'if reads("gate_b"):', 'if reads("gate_b", "attn"):',
           ("tests/test_model.py::test_both_batch_forms_match_forward_sample",)),
    # the init streams: one per parameter, keyed by the seed and its name
    Mutant("model: every weight draws from the seed's one stream", MODEL,
           "np.random.default_rng([cfg.seed, *name.encode()])", "np.random.default_rng(cfg.seed)",
           ("tests/test_model.py::test_multi_head_weights_are_the_per_head_draws_side_by_side",
            "tests/test_model.py::test_held_parameters_start_as_drawn")),
    Mutant("model: every head starts as head 0", MODEL,
           "heads = [glorot(rng, shape, dt) for _ in range(n_heads)]",
           "heads = [glorot(rng, shape, dt)] * n_heads",
           ("tests/test_model.py::test_multi_head_weights_are_the_per_head_draws_side_by_side",)),
    Mutant("sigmoid: sign read after the output overwrote the input", AUTODIFF,
           "    pos = x >= 0  # read before `out` may overwrite x\n    e = np.abs(x, out=out)\n",
           "    e = np.abs(x, out=out)\n    pos = x >= 0\n",
           ("tests/test_autodiff.py::test_sigmoid_bit_identical_to_masked_formula",
            "tests/test_fusion.py::TestTiles")),
    Mutant("scatter: column path skips index column 0", AUTODIFF,
           "        for j in range(idx.shape[1]):\n",
           "        for j in range(1, idx.shape[1]):\n",
           ("tests/test_fusion.py::TestSourceRows", "tests/test_autodiff.py")),
    # _block_gat_layer
    Mutant("gat: no ELU derivative", ENCODERS,
           "        g3 = np.minimum(out, 0.0)\n", "        g3 = np.zeros_like(out)\n", GAT_PINS),
    Mutant("gat: no leaky-relu backward", ENCODERS,
           "        d_s *= slope\n", "        d_s *= 1.0\n", GAT_PINS),
    Mutant("gat: softmax row term without the head factor", ENCODERS,
           "        dot *= k_heads\n", "        dot *= 1\n", GAT_PINS),
    Mutant("gat: source-score gradient summed by destination", ENCODERS,
           "edges.sum_by_src(d_s)", "edges.sum_by_dst(d_s)", GAT_PINS),
    Mutant("gat: input gradient without the score path", ENCODERS,
           "            d_z += d_lr.T @ wa.T\n", "            d_z += 0.0 * (d_lr.T @ wa.T)\n",
           GAT_PINS),
    Mutant("gat: input gradient aggregated by head 0 only", ENCODERS,
           "d_z = edges.from_blocks(attn.swapaxes(-1, -2) @ d_agg)",
           "d_z = edges.from_blocks(k_heads * attn[..., ::k_heads, :].swapaxes(-1, -2)"
           " @ d_agg[..., ::k_heads, :])", GAT_PINS),
    Mutant("gat: no score term in W's gradient", ENCODERS,
           "        d_w3 += d_wa[0]", "        d_w3 += 0.0 * d_wa[0]", GAT_PINS),
    Mutant("gat: score-vector halves swapped", ENCODERS,
           "d_wa = (d_lr @ z).reshape(2, k_heads, r)",
           "d_wa = (d_lr @ z).reshape(2, k_heads, r)[::-1]", GAT_PINS),
    Mutant("gat: projection gradient laid out by rows, not heads", ENCODERS,
           "ad.add_grad(w, d_w3.swapaxes(0, 1).reshape(r, -1))",
           "ad.add_grad(w, d_w3.reshape(r, -1))", GAT_PINS),
    # the indicator map folded into layer 1's weight, and the r-wide layer
    Mutant("gat: the indicator map folded in off the tape", ENCODERS,
           "ad.matmul(params.lift, w.tensor)", "ad.matmul(Tensor(params.lift.values), w.tensor)",
           GAT_PINS),
    Mutant("gat: heads of an r-row weight split by rows, not columns", ENCODERS,
           "w3 = w_cat.reshape(r, k_heads, d).swapaxes(0, 1)", "w3 = w_cat.reshape(k_heads, r, d)",
           GAT_PINS),
    # block_reduce_time
    Mutant("reduce_time: no ReLU mask", PREDICTOR,
           "                    g_h *= h_in > 0\n", "                    g_h *= 1.0\n", TIME_PINS),
    Mutant("reduce_time: every branch reads the first one's gradient", PREDICTOR,
           "g_h = g[:, None, k * d : (k + 1) * d]", "g_h = g[:, None, 0:d]", TIME_PINS),
    Mutant("reduce_time: first layer's weight gradient drops the indicator branch", PREDICTOR,
           "g_h = (g_2d @ f_map.values.T).reshape(n, -1, r)",
           "g_h = 0.0 * (g_2d @ f_map.values.T).reshape(n, -1, r)", TIME_PINS),
    Mutant("reduce_time: F's gradient dropped", PREDICTOR,
           "ad.add_grad(f_map, zw.reshape(-1, r).T @ g_2d)",
           "ad.add_grad(f_map, 0.0 * (zw.reshape(-1, r).T @ g_2d))", TIME_PINS),
    Mutant("reduce_time: F's gradient reads the rows, not W_0^T Z", PREDICTOR,
           "ad.add_grad(f_map, zw.reshape(-1, r).T @ g_2d)",
           "ad.add_grad(f_map, h_in[:, : zw.shape[1]].reshape(-1, r).T @ g_2d)", TIME_PINS),
    Mutant("reduce_time: bias gradient of the first branch only", PREDICTOR,
           "ad.add_grad(b, g_h.sum(axis=0).sum(axis=1).reshape(1, -1))",
           "ad.add_grad(b, (k == 0) * g_h.sum(axis=0).sum(axis=1).reshape(1, -1))", TIME_PINS),
    Mutant("reduce_time: input gradient without W", PREDICTOR,
           "ad.add_grad(x, np.matmul(w.values, g_h).reshape(rows, d))",
           "ad.add_grad(x, np.repeat(g_h, ws, axis=1).reshape(rows, d))", TIME_PINS),
    # a forward mutant: a constant classifier must fail the CLI fixture's chance test
    Mutant("head: constant logits", PREDICTOR,
           "            out = ad.relu(out)\n    return out\n",
           "            out = ad.relu(out)\n    return ad.scale(out, 0.0)\n",
           ("tests/test_cli.py::test_eval_beats_chance",)),
    # the finite checks: training's own after each epoch, and the tests' on every forward op
    Mutant("training: non-finite parameters reach validation", TRAINING,
           "bad = [p.name for p in model.params if not np.isfinite(p.values).all()]", "bad = []",
           ("tests/test_training.py"
            "::test_non_finite_parameter_after_an_epoch_is_a_numeric_error",)),
    Mutant("tests: the node wrapper passes non-finite values", "tests/conftest.py",
           "    if not np.all(np.isfinite(values)):\n", "    if False:\n",
           ("tests/test_autodiff.py::test_debug_mode_flags_nonfinite",)),
]


def run_pins(workdir: Path, pins) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(workdir / "src"), str(workdir)]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pins],
        cwd=workdir, env=env, capture_output=True, text=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("select", nargs="*", help="run the mutants whose name contains this")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.select or any(s in m.name for s in args.select)]
    if args.list:
        for m in chosen:
            print(f"{m.name}  [{m.path}]  pins: {' '.join(m.pins)}")
        return 0
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        pins = sorted({p for m in chosen for p in m.pins})
        baseline = run_pins(work, pins)
        if baseline.returncode != 0:
            print("unmutated pins fail; no mutant can be judged:")
            print(baseline.stdout[-2000:])
            return 1
        for m in chosen:
            target = work / m.path
            original = target.read_text()
            count = original.count(m.old)
            if count != 1:
                print(f"STALE     {m.name}: the text to mutate matches {count} times in {m.path}")
                failures += 1
                continue
            target.write_text(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                result = run_pins(work, m.pins)
            finally:
                target.write_text(original)
            took = time.perf_counter() - t0
            if result.returncode == 1:
                failed = [ln.split()[1].split("::", 1)[1] for ln in result.stdout.splitlines()
                          if ln.startswith("FAILED")]
                shown = ", ".join(failed[:2]) + (", ..." if len(failed) > 2 else "")
                print(f"caught    {m.name} ({took:.1f} s): {len(failed)} failed: {shown}")
            else:
                verdict = "SURVIVED" if result.returncode == 0 else "ERROR   "
                print(f"{verdict}  {m.name} ({took:.1f} s), pytest exit {result.returncode}")
                failures += 1
    print(f"{len(chosen) - failures} of {len(chosen)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
Criterion 7 (the L=4096 bench) takes a few seconds; everything else is fast.
"""

import statistics
import time

import numpy as np

from glakit import (ChunkPlan, ChunkPolicy, ModelKind, SeqTensor, SplitMix64,
                    backward_chunkwise, backward_parallel,
                    backward_recurrent_exact, backward_recurrent_fd,
                    check_causality, check_gradients, forward_chunkwise,
                    forward_parallel, forward_recurrent, make_instance,
                    predict_cost, read_tensor, recurrent_forward_cost,
                    rel_err, suffix_sum_arr, write_tensor)

GRAD_FIELDS = ("dQ", "dK", "dV", "dlog_alpha", "dlog_beta")
MAT = ChunkPolicy("materialize")
REC = ChunkPolicy("recompute")


def emit(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {label}: {status}{suffix}")
    return ok


def chunk_sweep(L):
    sizes = {1, 3, max(L // 2, 0), L}
    for c in range(2, L):
        if L % c:
            sizes.add(c)
            break
    return sorted(c for c in sizes if c >= 1)


def rand_dO(L, dv, seed):
    return SeqTensor(SplitMix64(seed).fill_pm1(L, dv))


def test_criterion_1_three_form_equivalence():
    Ls = (1, 2, 7, 32, 64, 256)
    dims = (1, 3, 8, 16)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        L = Ls[i % len(Ls)]
        dk = dims[i % len(dims)]
        dv = dims[(i // len(dims)) % len(dims)]
        inst = make_instance(ModelKind("general"), L, dk, dv, seed=1000 + i,
                             gate_floor=0.5)
        ref = forward_recurrent(inst).O.data
        worst = max(worst, rel_err(forward_parallel(inst).data, ref))
        for C in chunk_sweep(L):
            o, _, _ = forward_chunkwise(inst, ChunkPlan(L, C), MAT)
            worst = max(worst, rel_err(o.data, ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    assert emit(1, "three-form equivalence", ok,
                f"max_rel_err={worst:.3e} elapsed={elapsed:.1f}s")


def test_criterion_2_gradient_correctness_and_sign():
    Ls = (1, 2, 3, 5, 8, 12)
    dims = (1, 2, 3, 4)
    kinds = (ModelKind("general"), ModelKind("general"), ModelKind("gla_beta_one"),
             ModelKind("retnet", 0.9), ModelKind("vanilla"))
    worst = 0.0
    for i in range(20):
        inst = make_instance(kinds[i % len(kinds)], Ls[i % len(Ls)],
                             dims[i % len(dims)], dims[(i // 2) % len(dims)],
                             seed=2000 + i)
        reports = check_gradients(inst, eps=1e-5, tol=1e-6)
        worst = max(worst, max(r.max_rel_err for r in reports))
        if not all(r.passed for r in reports):
            assert emit(2, "gradient correctness", False,
                        f"instance {i}: " + "; ".join(r.line() for r in reports if not r.passed))
    # the suite must pass with exactly one sign choice: the flipped
    # dlogb identity has to be rejected by the same oracle
    flipped = check_gradients(make_instance(ModelKind("general"), 6, 3, 3, seed=2100),
                              eps=1e-5, tol=1e-6, flip_dlogb_sign=True)
    flipped_caught = all(not r.passed for r in flipped if r.name.endswith("dlog_alpha"))
    ok = worst <= 1e-6 and flipped_caught
    assert emit(2, "gradient correctness (adopted sign: dlogb = q*dq - k*dk)", ok,
                f"max_rel_err={worst:.3e} flipped_sign_rejected={flipped_caught}")


def test_criterion_3_gate_gradient_structure():
    worst = 0.0
    for seed in range(3000, 3006):
        inst = make_instance(ModelKind("general"), L=10, dk=3, dv=2, seed=seed)
        dO = rand_dO(10, 2, seed)
        O_par = forward_parallel(inst).data
        bundles = {
            "recurrent_exact": (backward_recurrent_exact(inst, dO),
                                forward_recurrent(inst).O.data),
            "parallel": (backward_parallel(inst, dO), O_par),
            "chunkwise": (backward_chunkwise(inst, dO, ChunkPlan(10, 4), MAT)[0],
                          forward_chunkwise(inst, ChunkPlan(10, 4), MAT)[0].data),
        }
        for name, (b, O) in bundles.items():
            dlogb = inst.Q.data * b.dQ.data - inst.K.data * b.dK.data
            dlogd = O * dO.data - inst.V.data * b.dV.data
            worst = max(worst, rel_err(suffix_sum_arr(dlogb), b.dlog_alpha.data))
            worst = max(worst, rel_err(suffix_sum_arr(dlogd), b.dlog_beta.data))
    ok = worst <= 1e-12
    assert emit(3, "closed-form gate-gradient structure", ok, f"max_rel_err={worst:.3e}")


def test_criterion_4_reductions():
    inst = make_instance(ModelKind("vanilla"), L=16, dk=3, dv=2, seed=4000)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    ref = np.zeros((16, 2))
    for t in range(16):
        for i in range(t + 1):
            ref[t] += float(Q[t] @ K[i]) * V[i]
    worst_v = max(
        rel_err(forward_recurrent(inst).O.data, ref),
        rel_err(forward_parallel(inst).data, ref),
        rel_err(forward_chunkwise(inst, ChunkPlan(16, 5), MAT)[0].data, ref))

    gamma = 0.9
    inst = make_instance(ModelKind("retnet", gamma), L=16, dk=3, dv=2, seed=4001)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    ref = np.zeros((16, 2))
    for t in range(16):
        for i in range(t + 1):
            ref[t] += gamma ** (t - i) * float(Q[t] @ K[i]) * V[i]
    worst_r = max(
        rel_err(forward_recurrent(inst).O.data, ref),
        rel_err(forward_parallel(inst).data, ref),
        rel_err(forward_chunkwise(inst, ChunkPlan(16, 5), MAT)[0].data, ref))
    ok = worst_v <= 1e-12 and worst_r <= 1e-10
    assert emit(4, "vanilla and retnet reductions", ok,
                f"vanilla={worst_v:.3e} retnet={worst_r:.3e}")


def test_criterion_5_policy_equivalence_and_cost_model():
    worst = 0.0
    counters_ok = True
    recompute_ok = True
    configs = []
    for L, C in ((5, 5), (8, 3), (8, 4), (16, 1), (16, 7), (12, 4)):
        for pol in (MAT, REC):
            configs.append((L, C, pol))
    assert len(configs) == 12
    for L, C, pol in configs:
        inst = make_instance(ModelKind("general"), L, 3, 2, seed=5000 + L + C)
        plan = ChunkPlan(L, C)
        dO = rand_dO(L, 2, seed=L * 31 + C)
        _, _, fwd = forward_chunkwise(inst, plan, pol)
        _, bwd = backward_chunkwise(inst, dO, plan, pol)
        counters_ok &= fwd == predict_cost(L, 3, 2, plan, pol, "forward")
        counters_ok &= bwd == predict_cost(L, 3, 2, plan, pol, "backward")
        if not pol.materialize:
            recompute_ok &= (bwd.state_writes == 0 and
                             bwd.recompute_passes == plan.num_chunks)
    inst = make_instance(ModelKind("general"), 16, 4, 4, seed=5100)
    plan = ChunkPlan(16, 4)
    dO = rand_dO(16, 4, seed=5101)
    bm, _ = backward_chunkwise(inst, dO, plan, MAT)
    br, _ = backward_chunkwise(inst, dO, plan, REC)
    for f in GRAD_FIELDS:
        worst = max(worst, rel_err(getattr(bm, f).data, getattr(br, f).data))
    ok = worst <= 1e-12 and counters_ok and recompute_ok
    assert emit(5, "policy equivalence + exact cost model", ok,
                f"policy_rel_err={worst:.3e} counters_exact={counters_ok}")


def test_criterion_6_causality_100_trials():
    ok = True
    worst = 0.0
    for seed in range(6000, 6005):  # 5 instances x 20 trials = 100
        inst = make_instance(ModelKind("general"), L=24, dk=3, dv=2, seed=seed)
        report = check_causality(inst, trials=20, seed=seed, tol=1e-12)
        ok &= report.passed
        worst = max(worst, report.max_rel_err)
    assert emit(6, "causality under future perturbations", ok,
                f"100 trials, max_rel_err={worst:.3e}")


def test_criterion_7_desk_scale_efficiency():
    L, d, C = 4096, 64, 64
    inst = make_instance(ModelKind("general"), L, d, d, seed=7000)
    plan = ChunkPlan(L, C)

    def timed(fn):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    ms_rec = timed(lambda: forward_recurrent(inst))
    ms_chk = timed(lambda: forward_chunkwise(inst, plan, REC))
    flops_chk = predict_cost(L, d, d, plan, REC).flops
    flops_rec = recurrent_forward_cost(L, d, d)
    ok = ms_chk < ms_rec and flops_chk < flops_rec
    assert emit(7, "desk-scale efficiency signal", ok,
                f"wall chunkwise={ms_chk:.1f}ms recurrent={ms_rec:.1f}ms "
                f"(x{ms_rec / ms_chk:.1f}); flops chunkwise={flops_chk} "
                f"recurrent={flops_rec} (x{flops_rec / flops_chk:.2f})")


def test_criterion_8_tensorfile_round_trip(tmp_path):
    rng = np.random.default_rng(8000)
    ok = True
    for i in range(1000):
        shape = tuple(int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4))))
        a = rng.uniform(-1e9, 1e9, shape)
        p = tmp_path / f"t{i % 16}.glat"  # reuse a few paths, overwrite
        write_tensor(p, a)
        b = read_tensor(p)
        ok &= (a.shape == b.shape and a.tobytes() == b.tobytes())
    assert emit(8, "tensor file bitwise round trip", ok, "1000 files")

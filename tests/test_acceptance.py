"""Acceptance gate: the ten shipping criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
Each test exercises one criterion end to end at its stated tolerance and
within its wall-clock budget, against independent oracles (hand-derived
values, closed-form queueing slopes, brute-force re-enumeration, central
finite differences).
"""

import math
import time

import numpy as np
import pytest

from farmscale.config import (DEFAULTS, dqn_config, episode_config,
                              reward_config, sarsa_config,
                              service_model_and_sizes)
from farmscale.core import RewardConfig
from farmscale.dqn import DqnAgent, double_dqn_targets
from farmscale.env import REWARD_TERMS, FarmEnv, compute_reward
from farmscale.metrics import CostConfig, cost_paygo, cost_sub
from farmscale.nn import Mlp
from farmscale.reactive import ReactiveAveragePolicy, ReactiveMaximumPolicy
from farmscale.sarsa import SarsaAgent, default_discretizer
from farmscale.sim import FarmSim, static_scaling_experiment
from farmscale.training import evaluate_policy, run_episode, train_agent
from farmscale.workload import (CALIBRATION_SAMPLES, build_episode_workload,
                                default_phases, fit_service_model,
                                generate_phase_arrivals, reduced_paper_model)
from tests.conftest import (constant_service_tasks, fuzz_sim,
                            single_phase_config)


def _report(num, label, checks, elapsed, budget):
    checks = dict(checks)
    checks[f"runtime<{budget:g}s"] = elapsed < budget
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"\nACCEPTANCE {num:02d} [{label}]: {status}  ({elapsed:.1f}s)")
    assert not failed, f"criterion {num} ({label}) failed: {failed}"


def test_criterion_01_calibration():
    t0 = time.perf_counter()
    full = fit_service_model(CALIBRATION_SAMPLES, form="full")
    reduced = fit_service_model(CALIBRATION_SAMPLES, form="reduced")
    model = reduced_paper_model()
    predictions = {512: 0.046, 1024: 0.181, 2048: 0.719, 4096: 2.870}
    checks = {
        f"predict({size})": abs(model.predict(size) - t) <= 0.02 * t
        for size, t in predictions.items()
    }
    checks["reduced a"] = abs(reduced.a - 1.7101e-07) <= 0.01 * 1.7101e-07
    checks["reduced c"] = abs(reduced.c - 1.665e-03) <= 0.01 * 1.665e-03
    checks["full a"] = abs(full.a - 1.646e-07) <= 0.01 * 1.646e-07
    checks["full b"] = abs(full.b - 3.167e-05) <= 0.01 * 3.167e-05
    checks["full c"] = abs(full.c - (-2.334e-02)) <= 0.01 * 2.334e-02
    delta = reduced.rss - full.rss
    checks["delta rss"] = abs(delta - 2.862e-04) <= 0.05 * 2.862e-04
    _report(1, "service-model calibration", checks,
            time.perf_counter() - t0, 1.0)


def test_criterion_02_workload_counts():
    t0 = time.perf_counter()
    phases = default_phases()
    targets = [90, 450, 300, 300]
    counts_exact = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for phase, want in zip(phases, targets):
            if len(generate_phase_arrivals(phase, rng)) != want:
                counts_exact = False
    checks = {"exact counts over 100 seeds": counts_exact}

    # window-level shape of the sinusoid phases: observed window counts stay
    # within 4 standard deviations of the rate integral, final window exempt
    for pi in (2, 3):
        phase = phases[pi]
        arr = np.asarray(generate_phase_arrivals(phase,
                                                 np.random.default_rng(0)))
        edges = np.arange(0.0, phase.duration + phase.window / 2, phase.window)
        obs, _ = np.histogram(arr, bins=edges)
        ok = True
        for i in range(len(obs) - 1):  # last window absorbs the adjustment
            exp = phase.rate_integral(edges[i], edges[i + 1])
            if abs(obs[i] - exp) > 4.0 * math.sqrt(exp):
                ok = False
        checks[f"phase {pi} window shape"] = ok
    _report(2, "workload generation", checks, time.perf_counter() - t0, 10.0)


def test_criterion_03_conservation_and_determinism():
    t0 = time.perf_counter()
    checks = {}
    for seed in (11, 42, 1234):
        # validate=True re-checks the conservation identity at every event
        sim = fuzz_sim(seed, trace=True)
        snap = sim.snapshot()
        checks[f"seed {seed} conservation"] = (
            snap.enqueued_total
            == snap.q_work + snap.workers_busy + snap.completed_total)
        checks[f"seed {seed} >=1e4 events"] = len(sim.trace) >= 10_000
        replay = fuzz_sim(seed, trace=True)
        checks[f"seed {seed} bitwise trace"] = sim.trace == replay.trace
    _report(3, "conservation & determinism", checks,
            time.perf_counter() - t0, 30.0)


def test_criterion_04_queueing_regimes():
    t0 = time.perf_counter()
    checks = {}
    # rho = 2 tasks/s * 1 s / 4 workers = 0.5: backlog stays bounded
    cfg = single_phase_config(2.0, 2000.0, n_init=4, n_max=4, n_min=4,
                              warm_start=True)
    sim = FarmSim(cfg, np.random.default_rng(0))
    sim.inject_tasks(constant_service_tasks(2.0, 2000.0, 1.0,
                                            spacing="poisson"))
    peaks = []
    for _ in range(100):
        sim.advance(20.0)
        peaks.append(sim.snapshot().q_work)
    checks["rho=0.5 bounded backlog"] = max(peaks[10:]) < 40

    # rho = 6 * 1 / 3 = 2: backlog grows at lambda - N / T_s = 3 tasks/s
    cfg = single_phase_config(6.0, 10_000.0, n_init=3, n_max=3, n_min=3,
                              warm_start=True)
    sim = FarmSim(cfg, np.random.default_rng(0))
    sim.inject_tasks(constant_service_tasks(6.0, 10_000.0, 1.0,
                                            spacing="poisson"))
    sim.advance(10_000.0)
    growth = sim.snapshot().q_work
    checks["rho=2 linear growth"] = abs(growth - 3.0 * 10_000.0) <= 0.10 * 30_000.0
    _report(4, "queueing regimes", checks, time.perf_counter() - t0, 30.0)


def test_criterion_05_static_scaling():
    t0 = time.perf_counter()
    cfg = single_phase_config(5.0, 60.0, n_init=1, n_max=32,
                              warm_start=False)
    workload = constant_service_tasks(5.0, 60.0, 1.0)
    pools = (1, 2, 4, 8, 16, 32)
    results, speedups = static_scaling_experiment(cfg, workload, pools)
    overheads = np.array([results[n].init_overhead for n in pools])
    checks = {
        f"n={n} startup in [5n, 8n]": 5.0 * n <= results[n].init_overhead <= 8.0 * n
        for n in pools
    }
    corr = np.corrcoef(pools, overheads)[0, 1]
    checks["linear correlation >= 0.95"] = corr >= 0.95
    checks["speedup monotone to n=8"] = (speedups[1] < speedups[2]
                                         < speedups[4] < speedups[8])
    _report(5, "static pool scaling", checks, time.perf_counter() - t0, 60.0)


def _reactive_series(policy_cls):
    cfg = single_phase_config(5.0, 480.0, n_init=4, n_max=20,
                              warm_start=True)
    env = FarmEnv(cfg, reward_config(DEFAULTS))
    policy = policy_cls(cfg.step_duration)
    # deterministic arrivals at 5/s, constant 1.5 s service: ideal N = 7.5
    workload = constant_service_tasks(5.0, 480.0, 1.5)
    run_episode(env, policy, workload, seed=0)
    return [st.observation.n_workers for st in env.log.steps]


def test_criterion_06_reactive_convergence():
    t0 = time.perf_counter()
    avg = _reactive_series(ReactiveAveragePolicy)
    mx = _reactive_series(ReactiveMaximumPolicy)
    settle = next((i for i in range(len(avg))
                   if all(n in (7, 8, 9) for n in avg[i:])), None)
    checks = {
        "average settles within 15 steps": settle is not None and settle <= 15,
        "settles in {7,8,9} and holds": settle is not None,
        "maximum provisions >= average": (
            np.mean(mx[15:]) >= np.mean(avg[15:])
            and max(mx[15:]) >= max(avg[15:])),
    }
    _report(6, "reactive autoscaling", checks, time.perf_counter() - t0, 60.0)


def test_criterion_07_reward_and_cost():
    t0 = time.perf_counter()
    unit = RewardConfig(q_target=0.9, q_queue_target=100.0, q_idle=10.0,
                        n_target=10, w_qos=1.0, w_backlog=1.0, w_scale=1.0,
                        w_eff=1.0, w_up=1.0, w_down=1.0)
    r1, _ = compute_reward(unit, q_k=1.0, backlog=20.0, n_workers=8,
                           applied_delta=0)
    r2, _ = compute_reward(unit, q_k=0.5, backlog=300.0, n_workers=12,
                           applied_delta=+1)
    r0, _ = compute_reward(unit, q_k=0.9, backlog=100.0, n_workers=8,
                           applied_delta=0)
    checks = {
        "reward example +1.1": abs(r1 - 1.1) <= 1e-9,
        "reward example -4.4": abs(r2 - (-4.4)) <= 1e-9,
        "neutral point zero": abs(r0) <= 1e-9,
    }
    rng = np.random.default_rng(7)
    sums_ok, names_ok = True, True
    for _ in range(200):
        total, terms = compute_reward(
            unit, q_k=float(rng.uniform(0, 1)),
            backlog=float(rng.uniform(0, 500)),
            n_workers=int(rng.integers(1, 21)),
            applied_delta=int(rng.integers(-1, 2)))
        # the terms are a tuple in REWARD_TERMS order
        sums_ok &= abs(total - sum(terms)) <= 1e-12
        names_ok &= len(terms) == len(REWARD_TERMS)
    checks["terms sum to total (1e-12)"] = sums_ok
    checks["all seven terms present"] = names_ok and len(REWARD_TERMS) == 7

    paygo_cfg = CostConfig(c_w=1.0, c_scale=0.5, c_sub=0.0, c_burst=0.0,
                           n_sub=0)
    sub_cfg = CostConfig(c_w=0.0, c_scale=0.0, c_sub=1.0, c_burst=2.0,
                         n_sub=3)
    checks["paygo example 7.5"] = abs(
        cost_paygo([2, 2, 3], 1.0, paygo_cfg) - 7.5) <= 1e-9
    checks["subscription example 8.0"] = abs(
        cost_sub([2, 4], 1.0, sub_cfg) - 8.0) <= 1e-9
    _report(7, "reward & cost accounting", checks,
            time.perf_counter() - t0, 10.0)


def test_criterion_08_learned_policies():
    t0 = time.perf_counter()
    cfg = dict(DEFAULTS)
    ep_cfg = episode_config(cfg)
    model, dist = service_model_and_sizes(cfg)
    env = FarmEnv(ep_cfg, reward_config(cfg))
    eval_seeds = range(10)

    ra = ReactiveAveragePolicy(ep_cfg.step_duration)
    ra_runs = evaluate_policy(ra, env, dist, model, eval_seeds)
    ra_qos = float(np.mean([s.final_qos for s in ra_runs]))
    ra_scale = float(np.mean([s.n_scale for s in ra_runs]))
    phase_qos = [float(np.mean([s.per_phase[p].qos for s in ra_runs]))
                 for p in range(len(ep_cfg.phases))]
    checks = {"reactive worst phase is steady-high":
              int(np.argmin(phase_qos)) == 1}

    sarsa = SarsaAgent(sarsa_config(cfg), default_discretizer(ep_cfg.n_max),
                       seed=0)
    records = train_agent(sarsa, env, dist, model, episodes=300,
                          base_seed=0, shuffle=False)
    checks["sarsa >= 100 episodes"] = len(records) >= 100
    sarsa_runs = evaluate_policy(sarsa, env, dist, model, eval_seeds)
    sarsa_qos = float(np.mean([s.final_qos for s in sarsa_runs]))
    checks["sarsa final QoS >= 0.90"] = sarsa_qos >= 0.90
    checks["sarsa >= reactive + 20pp"] = sarsa_qos >= ra_qos + 0.20

    lows, highs = env.observation_bounds()
    dqn = DqnAgent(lows, highs, dqn_config(cfg), seed=0)
    dqn_records = train_agent(dqn, env, dist, model, episodes=100,
                              base_seed=0, shuffle=False)
    checks["dqn >= 80 episodes"] = len(dqn_records) >= 80
    dqn_runs = evaluate_policy(dqn, env, dist, model, eval_seeds)
    dqn_qos = float(np.mean([s.final_qos for s in dqn_runs]))
    dqn_scale = float(np.mean([s.n_scale for s in dqn_runs]))
    checks["dqn QoS >= reactive"] = dqn_qos >= ra_qos
    checks["dqn scales less than reactive"] = dqn_scale < ra_scale

    print(f"\n  reactive  qos={ra_qos:.3f} scale_actions={ra_scale:.1f} "
          f"per-phase qos={[round(q, 3) for q in phase_qos]}")
    print(f"  sarsa     qos={sarsa_qos:.3f}")
    print(f"  dqn       qos={dqn_qos:.3f} scale_actions={dqn_scale:.1f}")
    _report(8, "learned autoscaling", checks, time.perf_counter() - t0, 900.0)


def test_criterion_09_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    for instance in range(100):
        rng = np.random.default_rng(instance)
        sizes = (int(rng.integers(2, 5)), int(rng.integers(3, 7)),
                 int(rng.integers(2, 4)))
        net = Mlp(sizes, rng)
        for b in net.biases:
            # keep every pre-activation off the exact ReLU kink
            b += rng.normal(0.0, 0.1, size=b.shape)
        batch = int(rng.integers(1, 6))
        x = rng.normal(size=(batch, sizes[0]))
        actions = rng.integers(0, sizes[-1], size=batch)
        targets = rng.normal(size=batch)
        _, grads = net.loss_and_gradients(x, actions, targets)
        grads = [g.copy() for g in grads]  # the next call overwrites grads
        for p, g in zip(net.parameters(), grads):
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx, orig, eps = it.multi_index, p[it.multi_index], 1e-6
                p[idx] = orig + eps
                hi, _ = net.loss_and_gradients(x, actions, targets)
                p[idx] = orig - eps
                lo, _ = net.loss_and_gradients(x, actions, targets)
                p[idx] = orig
                num = (hi - lo) / (2 * eps)
                worst = max(worst, abs(g[idx] - num) / max(1.0, abs(num)))
                it.iternext()
    checks = {"max relative error <= 1e-4": worst <= 1e-4}
    print(f"\n  gradcheck worst relative error: {worst:.2e}")
    _report(9, "analytic gradients", checks, time.perf_counter() - t0, 30.0)


def test_criterion_10_double_dqn_targets():
    t0 = time.perf_counter()
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, obs_dim, n_actions = 32, 9, 3
        policy = Mlp((obs_dim, 12, n_actions), rng)
        target = Mlp((obs_dim, 12, n_actions), rng)
        rewards = rng.normal(size=n)
        next_obs = rng.normal(size=(n, obs_dim))
        dones = rng.random(n) < 0.2
        gamma = float(rng.uniform(0.5, 0.999))
        got = double_dqn_targets(policy, target, rewards, next_obs, dones,
                                 gamma)
        q_policy = policy.forward(next_obs)
        q_target = target.forward(next_obs)
        for i in range(n):
            best, best_val = 0, q_policy[i, 0]
            for a in range(1, n_actions):  # first maximum wins
                if q_policy[i, a] > best_val:
                    best, best_val = a, q_policy[i, a]
            expected = rewards[i] + gamma * q_target[i, best] * (not dones[i])
            if got[i] != expected:  # exact float equality
                ok = False
    checks = {"targets match brute force exactly": ok}
    _report(10, "double-network targets", checks,
            time.perf_counter() - t0, 30.0)

"""End-to-end acceptance gates for the full pipeline.

Each test prints one ``criterion N: PASS/FAIL`` line with the measured
numbers, so a failed run states exactly which bar was missed and by how
much.  These are deliberately heavier than the per-module suites; the
whole file targets a few minutes of wall time.
"""

import os
import time
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from trustrec.autoencoder import (
    AutoencoderConfig,
    forward,
    init_autoencoder,
    loss_and_gradients,
    masked_mse,
)
from trustrec.cli import main as cli_main
from trustrec.data import (
    IdMap,
    SplitSpec,
    TrustGraph,
    save_ratings,
    save_trust,
    split,
    subsample_top_trust_users,
)
from trustrec.embed import WalkConfig, cosine_similarity, generate_walks, node_embeddings, step_distribution
from trustrec.evaluation import evaluate, rmse, run_ablations, autoencoder_inits
from trustrec.graph import community_leaders, louvain, modularity, pagerank, propagate_trust
from trustrec.model import HyperParams, ModelParams, TrainingContext, gradients, init_params, objective, train
from trustrec.synth import planted_factors, social_bundle, toy_bundle

from oracles import (
    best_partition_value,
    central_difference,
    dense_pagerank,
    exhaustive_propagation,
    gradient_gap,
    single_move_optimal,
)


def _verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _undirected_csr(edges, n):
    rows = [e[0] for e in edges] + [e[1] for e in edges]
    cols = [e[1] for e in edges] + [e[0] for e in edges]
    vals = [e[2] for e in edges] * 2
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def test_criterion_1_gradient_correctness(make_context):
    started = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(4, 11))
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, 5))
        ctx = make_context(rng, m, n, k)
        params = ModelParams(
            rng.normal(0, 0.5, size=(k, m)),
            rng.normal(0, 0.5, size=(k, n)),
            rng.normal(0, 0.5, size=k),
        )
        hp = HyperParams(
            k=k, learning_rate=0.01, lam_p=0.11, lam_q=0.07, lam_w=0.05, lam_t=0.09,
            lam_c=0.13, epochs=1, seed=trial,
        )
        gP, gQ, gW = gradients(params, ctx, hp)

        def at_p(flat):
            return objective(ModelParams(flat.reshape(k, m), params.Q, params.W), ctx, hp)

        def at_q(flat):
            return objective(ModelParams(params.P, flat.reshape(k, n), params.W), ctx, hp)

        def at_w(vec):
            return objective(ModelParams(params.P, params.Q, vec), ctx, hp)

        worst = max(
            worst,
            gradient_gap(gP.ravel(), central_difference(at_p, params.P.ravel())),
            gradient_gap(gQ.ravel(), central_difference(at_q, params.Q.ravel())),
            gradient_gap(gW, central_difference(at_w, params.W)),
        )
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 10.0
    assert _verdict(
        1, ok, f"20 instances, worst P/Q/W gradient gap {worst:.2e} (bar 1e-4), {elapsed:.1f}s (bar 10s)"
    )


def test_criterion_2_autoencoder_gradient_and_mask():
    rng = np.random.default_rng(7)
    config = AutoencoderConfig(hidden_sizes=(5, 3, 5), learning_rate=0.01, seed=7)
    model = init_autoencoder(6, config, rng)
    targets = rng.uniform(1.0, 5.0, size=(4, 6))
    mask = (rng.random((4, 6)) < 0.6).astype(float)
    mask[0, 0] = 1.0
    _, w_grads, b_grads = loss_and_gradients(model, targets, mask)

    worst = 0.0
    for layer in range(len(model.weights)):
        def at_w(wmat, layer=layer):
            saved = model.weights[layer]
            model.weights[layer] = wmat
            acts, _ = forward(model, targets * mask)
            out = masked_mse(acts[-1], targets, mask)
            model.weights[layer] = saved
            return out

        def at_b(bvec, layer=layer):
            saved = model.biases[layer]
            model.biases[layer] = bvec
            acts, _ = forward(model, targets * mask)
            out = masked_mse(acts[-1], targets, mask)
            model.biases[layer] = saved
            return out

        worst = max(
            worst,
            gradient_gap(w_grads[layer], central_difference(at_w, model.weights[layer])),
            gradient_gap(b_grads[layer], central_difference(at_b, model.biases[layer])),
        )

    loss, grads, _ = loss_and_gradients(model, targets, mask)
    poked = targets + 500.0 * (1.0 - mask)
    loss_poked, grads_poked, _ = loss_and_gradients(model, poked, mask)
    inert = loss_poked == loss and all(
        np.array_equal(a, b) for a, b in zip(grads, grads_poked)
    )
    ok = worst < 1e-4 and inert
    assert _verdict(
        2, ok, f"worst layer gradient gap {worst:.2e} (bar 1e-4), masked positions bit-inert: {inert}"
    )


def test_criterion_3_graph_oracles():
    started = time.monotonic()

    # (a) Louvain vs exhaustive partition search on every connected graph
    # with <= 5 nodes, plus random weighted graphs up to 8 nodes; each result
    # must be the global optimum or provably stuck under single relocations
    checked = optimal = certified = 0
    for n in (4, 5):
        pairs = list(combinations(range(n), 2))
        for mask_bits in range(1, 1 << len(pairs)):
            edges = [(a, b, 1.0) for bit, (a, b) in enumerate(pairs) if mask_bits >> bit & 1]
            adj = _undirected_csr(edges, n)
            if connected_components(adj, directed=False)[0] != 1:
                continue
            graph = TrustGraph.from_edges(n, edges)
            result = louvain(graph, seed=0)
            best = best_partition_value(n, lambda lab: modularity(adj, lab))
            checked += 1
            if result.modularity >= best - 1e-9:
                optimal += 1
            elif single_move_optimal(result.labels, lambda lab: modularity(adj, lab)):
                certified += 1

    gen = np.random.default_rng(7)
    for n in (6, 7, 8):
        made = 0
        while made < 10:
            upper = np.triu(gen.random((n, n)) < 0.35, 1)
            rows, cols = upper.nonzero()
            if len(rows) == 0:
                continue
            weights = gen.integers(1, 4, size=len(rows)) / 3.0
            adj = sparse.csr_matrix(
                (np.r_[weights, weights], (np.r_[rows, cols], np.r_[cols, rows])), shape=(n, n)
            )
            if connected_components(adj, directed=False)[0] != 1:
                continue
            made += 1
            checked += 1
            graph = TrustGraph(n, rows, cols, weights)
            result = louvain(graph, seed=0)
            best = best_partition_value(n, lambda lab: modularity(adj, lab))
            if result.modularity >= best - 1e-9:
                optimal += 1
            elif single_move_optimal(result.labels, lambda lab: modularity(adj, lab)):
                certified += 1
    louvain_ok = optimal + certified == checked

    triangles = TrustGraph.from_edges(
        6, [(a, b, 1.0) for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]]
    )
    triangle_ok = louvain(triangles, seed=0).modularity == 0.5

    # (b) PageRank vs dense power iteration
    pagerank_gap = 0.0
    for n in (10, 25, 50):
        for seed in (0, 1):
            gen = np.random.default_rng(seed)
            dense = (gen.random((n, n)) < 0.15).astype(float) * gen.uniform(0.5, 2.0, (n, n))
            np.fill_diagonal(dense, 0.0)
            got = pagerank(sparse.csr_matrix(dense), damping=0.85)
            want = dense_pagerank(dense, damping=0.85)
            pagerank_gap = max(pagerank_gap, float(np.abs(got - want).max()))
    pagerank_ok = pagerank_gap < 1e-8

    # (c) trust propagation vs exhaustive path enumeration
    propagation_ok = True
    gen = np.random.default_rng(1)
    for trial in range(100):
        n = int(gen.integers(3, 11))
        out_edges = {}
        for u in range(n):
            for v in range(n):
                if u != v and gen.random() < 0.3:
                    value = float(gen.uniform(0.1, 1.0))
                    out_edges.setdefault(u, {})[v] = value
        graph = TrustGraph.from_edges(n, [(u, v, t) for u in out_edges for v, t in out_edges[u].items()])
        decay, depth = 0.8, 3
        got = propagate_trust(graph, decay, depth)
        want = exhaustive_propagation(out_edges, n, decay, depth)
        pairs = {(u, v): t for u, v, t in zip(got.truster.tolist(), got.trustee.tolist(), got.values.tolist())}
        flat_want = {(u, v): t for u, inner in want.items() for v, t in inner.items()}
        if pairs.keys() != flat_want.keys():
            propagation_ok = False
            break
        if any(abs(pairs[key] - flat_want[key]) > 1e-12 for key in pairs):
            propagation_ok = False
            break

    elapsed = time.monotonic() - started
    ok = louvain_ok and triangle_ok and pagerank_ok and propagation_ok and elapsed < 60.0
    assert _verdict(
        3,
        ok,
        f"louvain {optimal} optimal + {certified} move-stuck of {checked}, "
        f"triangles exact: {triangle_ok}, pagerank gap {pagerank_gap:.1e} (bar 1e-8), "
        f"propagation matches on 100 digraphs: {propagation_ok}, {elapsed:.0f}s (bar 60s)",
    )


def test_criterion_4_walk_statistics_and_barbell():
    edges = [
        (0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0), (1, 3, 1.0),
        (2, 4, 3.0), (3, 4, 1.0), (3, 5, 2.0), (4, 5, 1.0),
    ]
    adj = _undirected_csr(edges, 6)
    worst_settings = []
    steps_per_setting = []
    for p, q in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)):
        config = WalkConfig(dimensions=2, num_walks=350, walk_length=51, p=p, q=q, seed=0)
        walks = generate_walks(adj, config)
        transitions = defaultdict(Counter)
        total = 0
        for walk in walks:
            for t in range(1, len(walk) - 1):
                transitions[(walk[t - 1], walk[t])][walk[t + 1]] += 1
                total += 1
        steps_per_setting.append(total)
        worst = 0.0
        within = True
        for (prev, cur), counter in transitions.items():
            n_state = sum(counter.values())
            candidates, probs = step_distribution(adj, prev, cur, p, q)
            for cand, prob in zip(candidates, probs):
                stderr = np.sqrt(prob * (1.0 - prob) / n_state)
                gap = abs(counter[cand] / n_state - prob)
                if gap > 3.0 * stderr:
                    within = False
                if stderr > 0:
                    worst = max(worst, gap / stderr)
        worst_settings.append((p, q, worst, within))
    stats_ok = all(w[3] for w in worst_settings) and min(steps_per_setting) >= 10**5

    # two 5-cliques joined by one bridge edge
    barbell = []
    for a, b in combinations(range(5), 2):
        barbell.append((a, b, 1.0))
        barbell.append((a + 5, b + 5, 1.0))
    barbell.append((4, 5, 1.0))
    graph = TrustGraph.from_edges(10, barbell)
    hits = 0
    for seed in range(10):
        config = WalkConfig(
            dimensions=8, num_walks=20, walk_length=30, window=3, negatives=5,
            epochs=3, learning_rate=0.05, seed=seed,
        )
        table = node_embeddings(graph, config)
        intra, inter = [], []
        for a in range(10):
            for b in range(a + 1, 10):
                value = cosine_similarity(table[a], table[b])
                (intra if (a < 5) == (b < 5) else inter).append(value)
        hits += float(np.mean(intra)) > float(np.mean(inter))
    barbell_ok = hits >= 9

    ok = stats_ok and barbell_ok
    zs = ", ".join(f"(p={p} q={q}) z={w:.2f}" for p, q, w, _ in worst_settings)
    assert _verdict(
        4,
        ok,
        f"{min(steps_per_setting)} steps/setting, worst transition z: {zs} (bar 3), "
        f"barbell intra>inter on {hits}/10 seeds (bar 9)",
    )


def test_criterion_5_planted_factor_recovery():
    started = time.monotonic()
    m, n, k = 100, 100, 10
    ratings, _, _ = planted_factors(num_users=m, num_items=n, k=k, density=0.5, noise=0.1, seed=0)
    train_split, test_split = split(ratings, SplitSpec(0.8, 0))
    # Recovery is only defined on an identifiable instance: train ratings well
    # above the rank-k degrees of freedom, and at least k of them on every user
    # and item so no factor is underdetermined given the other side.  Below
    # that, a better optimizer of the objective moves further from the truth.
    free = k * (m + n - k)
    thinnest = int(min(train_split.user_counts().min(), train_split.item_counts().min()))
    assert len(train_split) >= 2 * free and thinnest >= k, (
        f"criterion 5 instance not identifiable: {len(train_split)} train ratings vs {free} free "
        f"parameters (need {2 * free}); thinnest user or item has {thinnest} train ratings (need {k})"
    )
    hp = HyperParams(
        k=k, learning_rate=0.02, lam_p=0.05, lam_q=0.05, lam_w=0.0, lam_t=0.0,
        lam_c=0.0, epochs=200, seed=0,
    )
    start = init_params(m, n, hp)
    params, _ = train(TrainingContext(train=train_split), hp, start.P, start.Q)
    score = evaluate(params, None, test_split).rmse
    elapsed = time.monotonic() - started
    ok = score <= 0.2 and elapsed < 120.0
    assert _verdict(
        5,
        ok,
        f"test rmse {score:.4f} (bar 0.2) in {elapsed:.0f}s (bar 120s); {len(train_split)} train "
        f"ratings vs {free} free parameters at 50% density",
    )


def test_criterion_6_initialization_benefit():
    def epochs_to(history, threshold):
        for index, value in enumerate(history):
            if value <= threshold:
                return index + 1
        return 10**9

    wins = 0
    for s in range(10):
        ratings, _, _ = planted_factors(density=0.2, seed=100 + s)
        train_split, _ = split(ratings, SplitSpec(0.8, seed=100 + s))
        hp = HyperParams(
            k=10, learning_rate=0.03, lam_p=0.05, lam_q=0.05, lam_w=0.0, lam_t=0.0,
            lam_c=0.0, epochs=120, seed=s,
        )
        ctx = TrainingContext(train=train_split)
        base = init_params(100, 100, hp)
        _, random_history = train(ctx, hp, base.P, base.Q)
        threshold = min(random_history)

        config = AutoencoderConfig(hidden_sizes=(128, 64, 32, 10, 32, 64, 128), epochs=150, seed=s)
        init_P, init_Q = autoencoder_inits(train_split, 10, config, replace(config, seed=s + 1))
        _, ae_history = train(ctx, hp, init_P, init_Q)
        wins += epochs_to(ae_history, threshold) <= epochs_to(random_history, threshold)

    ok = wins >= 7
    assert _verdict(
        6, ok, f"autoencoder init reaches the random-init best objective at least as fast on {wins}/10 seeds (bar 7)"
    )


def test_criterion_7_ablation_ordering():
    started = time.monotonic()
    bundle = social_bundle(
        num_users=2600, num_items=1500, num_communities=12, k=10,
        ratings_per_user=(4, 30), member_noise=0.25, rating_noise=0.25,
        trust_per_user=(2, 6), cross_community=0.05, seed=42,
    )
    ratings, graph, _ = subsample_top_trust_users(bundle.ratings, bundle.trust, 2000)
    train_split, test_split = split(ratings, SplitSpec(0.8, seed=42))

    communities = louvain(graph, seed=42)
    leaders = community_leaders(graph, communities)
    propagated = propagate_trust(graph, decay=0.8, max_depth=2)
    embeddings = node_embeddings(
        graph,
        WalkConfig(dimensions=10, num_walks=8, walk_length=40, p=1.0, q=0.5, window=5, seed=42),
    )
    config = AutoencoderConfig(epochs=25, seed=42)
    init_P, init_Q = autoencoder_inits(train_split, 10, config, replace(config, seed=43))

    hp = HyperParams(
        k=10, learning_rate=0.01, lam_p=0.1, lam_q=0.1, lam_w=0.1, lam_t=0.1, lam_c=0.1,
        epochs=30, seed=42,
    )
    ctx = TrainingContext(
        train=train_split, trust=propagated, embeddings=embeddings, leaders=leaders,
    )
    reports = run_ablations(ctx, hp, test_split, ae_init=(init_P, init_Q))
    plain, full = reports[0].rmse, reports[-1].rmse
    improvement = 100.0 * (plain - full) / plain
    elapsed = time.monotonic() - started
    ok = full <= plain and improvement >= 1.0 and elapsed < 900.0
    ladder = " -> ".join(f"{r.rmse:.4f}" for r in reports)
    assert _verdict(
        7,
        ok,
        f"ladder {ladder}; full beats plain by {improvement:.2f}% (bar 1%), {elapsed:.0f}s (bar 900s)",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    bundle = toy_bundle(seed=0)
    user_map, item_map = IdMap(), IdMap()
    for u in range(bundle.ratings.num_users):
        user_map.add(u)
    for i in range(bundle.ratings.num_items):
        item_map.add(i)
    ratings_path = tmp_path / "ratings.txt"
    trust_path = tmp_path / "trust.txt"
    save_ratings(bundle.ratings, ratings_path, user_map, item_map)
    save_trust(bundle.trust, trust_path, user_map)

    def run(work):
        config = tmp_path / f"{work}.txt"
        config.write_text(
            f"paths.ratings = {ratings_path}\n"
            f"paths.trust = {trust_path}\n"
            f"paths.work = {tmp_path / work}\n"
            "autoencoder.epochs = 10\n"
            "walks.num_walks = 5\n"
            "walks.walk_length = 20\n"
            "model.epochs = 15\n"
        )
        for command in ("prepare", "train", "evaluate"):
            assert cli_main(["--config", str(config), command]) == 0
        artifacts = {}
        for root, _, files in os.walk(tmp_path / work):
            for name in files:
                if name.endswith(".ckpt") or name == "report.txt":
                    path = os.path.join(root, name)
                    key = os.path.relpath(path, tmp_path / work)
                    with open(path, "rb") as fh:
                        artifacts[key] = fh.read()
        return artifacts

    first = run("work_one")
    second = run("work_two")
    same_names = first.keys() == second.keys()
    same_bytes = same_names and all(first[key] == second[key] for key in first)
    ok = same_bytes and any(key.endswith("model.ckpt") for key in first)
    assert _verdict(
        8,
        ok,
        f"{len(first)} checkpoint/report artifacts byte-identical across two runs: {same_bytes}",
    )


def test_criterion_9_rmse_unit_correctness():
    exact_zero = rmse([(4.0, 4.0), (2.0, 2.0)])
    single = rmse([(4.0, 3.0)])
    symmetric = rmse([(5.0, 3.0), (1.0, 3.0)])
    ok = (
        abs(exact_zero - 0.0) < 1e-12
        and abs(single - 1.0) < 1e-12
        and abs(symmetric - 2.0) < 1e-12
    )
    assert _verdict(
        9,
        ok,
        f"perfect={exact_zero!r}, single residual={single!r}, symmetric pair={symmetric!r} (each within 1e-12)",
    )

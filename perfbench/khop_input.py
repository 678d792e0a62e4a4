"""Planted-community input for the khop-5k workload, written in the published file formats.

The generator is the benchmark's own and uses numpy only, so a change to the
package's synthetic generator cannot change this workload.  It runs in the
orchestrator, outside the measured worker process.

Shape: 5,000 nodes in 4 equal communities, mean degree about 40 (80% of
edges inside a community), 200 random-walk subgraphs of 10-20 nodes labelled
by their majority community, and 32-dim noisy community-indicator features.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

NUM_NODES = 5000
COMMUNITIES = 4
MEAN_DEGREE = 40.0
INTRA_SHARE = 0.8
NUM_RECORDS = 200
RECORD_SIZE = (10, 20)
FEATURE_DIM = 32
FEATURE_NOISE = 1.75
WALK_LEAK = 0.1
SPLIT_RATIOS = (0.7, 0.15, 0.15)


def _sample_pairs(rng, lo_a, hi_a, lo_b, hi_b, count, same_block):
    """``count`` distinct undirected pairs (u < v) between two node ranges."""
    found = np.empty(0, dtype=np.int64)
    while found.size < count:
        need = count - found.size
        u = rng.integers(lo_a, hi_a, size=2 * need)
        v = rng.integers(lo_b, hi_b, size=2 * need)
        if same_block:
            keep = u != v
            u, v = u[keep], v[keep]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        codes = np.unique(np.concatenate([found, lo * NUM_NODES + hi]))
        found = codes if codes.size <= count else rng.choice(codes, count, replace=False)
    return np.sort(found)


def _edges(rng, bounds):
    n_block = NUM_NODES // COMMUNITIES
    intra_pairs = n_block * (n_block - 1) // 2
    inter_pairs = n_block * n_block
    total = MEAN_DEGREE * NUM_NODES / 2
    p_intra = INTRA_SHARE * total / (COMMUNITIES * intra_pairs)
    n_cross = COMMUNITIES * (COMMUNITIES - 1) // 2
    p_inter = (1 - INTRA_SHARE) * total / (n_cross * inter_pairs)
    codes = []
    for a in range(COMMUNITIES):
        for b in range(a, COMMUNITIES):
            same = a == b
            count = rng.binomial(intra_pairs if same else inter_pairs, p_intra if same else p_inter)
            codes.append(_sample_pairs(rng, *bounds[a], *bounds[b], count, same))
    codes = np.sort(np.concatenate(codes))
    return codes // NUM_NODES, codes % NUM_NODES


def _walk(rng, indptr, indices, community, home, size):
    home_nodes = np.flatnonzero(community == home)
    current = int(rng.choice(home_nodes))
    visited = [current]
    seen = {current}
    for _ in range(60 * size):
        if len(visited) >= size:
            break
        nbrs = indices[indptr[current]:indptr[current + 1]]
        if rng.random() >= WALK_LEAK:
            nbrs = nbrs[community[nbrs] == home]
        current = int(rng.choice(nbrs)) if nbrs.size else int(rng.choice(home_nodes))
        if current not in seen:
            visited.append(current)
            seen.add(current)
    while len(visited) < size:
        extra = int(rng.choice(home_nodes))
        if extra not in seen:
            visited.append(extra)
            seen.add(extra)
    return visited


def write_khop_input(seed: int, out_dir) -> dict:
    """Generate the input from ``seed``, write it to ``out_dir``; return paths and shape."""
    rng = np.random.default_rng([seed, 5000])
    n_block = NUM_NODES // COMMUNITIES
    community = np.repeat(np.arange(COMMUNITIES), n_block)
    bounds = [(c * n_block, (c + 1) * n_block) for c in range(COMMUNITIES)]
    src, dst = _edges(rng, bounds)

    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    order = np.argsort(both_src, kind="stable")
    indices = both_dst[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(both_src, minlength=NUM_NODES))])

    records = []
    for m in range(NUM_RECORDS):
        home = m % COMMUNITIES
        size = int(rng.integers(RECORD_SIZE[0], RECORD_SIZE[1] + 1))
        walk = _walk(rng, indptr, indices, community, home, size)
        counts = np.bincount(community[walk], minlength=COMMUNITIES)
        label = home if counts[home] == counts.max() else int(np.argmax(counts))
        records.append((label, walk))

    features = (np.arange(FEATURE_DIM)[None, :] % COMMUNITIES == community[:, None]).astype(float)
    features += FEATURE_NOISE * rng.standard_normal(features.shape)

    perm = rng.permutation(NUM_RECORDS)
    cut1 = round(SPLIT_RATIOS[0] * NUM_RECORDS)
    cut2 = round((SPLIT_RATIOS[0] + SPLIT_RATIOS[1]) * NUM_RECORDS)
    stage = np.empty(NUM_RECORDS, dtype=object)
    stage[perm[:cut1]], stage[perm[cut1:cut2]], stage[perm[cut2:]] = "train", "val", "test"

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: str(out / name) for name in ("edges.txt", "subgraphs.tsv", "embeddings.txt", "splits.tsv")}
    np.savetxt(paths["edges.txt"], np.column_stack([src, dst]), fmt="%d")
    with open(paths["subgraphs.tsv"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{label}\t{','.join(map(str, walk))}\n" for label, walk in records)
    np.savetxt(paths["embeddings.txt"], features, fmt="%.17g")
    with open(paths["splits.tsv"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{s}\n" for i, s in enumerate(stage))

    sizes = [len(walk) for _, walk in records]
    shape = {
        "nodes": NUM_NODES,
        "directed_edges": int(2 * src.size),
        "mean_degree": 2 * src.size / NUM_NODES,
        "records": NUM_RECORDS,
        "mean_record_size": float(np.mean(sizes)),
    }
    return {"paths": paths, "shape": shape}

"""The structural invariants of a ``DatasetBundle``, as a test oracle.

The bundle builders (``generate_synthetic`` and ``load_dataset``) enforce
each of them where the bundle is made; the tests check what the builders
return against this independent statement of them.
"""

from subgraph_infomax.data import STAGES


def bundle_problem(bundle) -> str | None:
    """The first invariant that ``bundle`` breaks, in record order, or ``None``."""
    graph = bundle.graph
    if len(bundle.splits) != len(bundle.records):
        return "split assignment length differs from the record count"
    for stage in bundle.splits:
        if stage not in STAGES:
            return f"invalid split label: {stage!r}"
    values = bundle.embedding_values
    if values is not None and values.shape[0] != graph.num_nodes:
        return "embedding row count differs from the global node count"
    edges = set(map(tuple, graph.pairs().tolist()))
    for idx, record in enumerate(bundle.records):
        if len(record.node_ids) < 2:
            return f"record {idx} is a single-node subgraph"
        if not all(0 <= node < graph.num_nodes for node in record.node_ids):
            return f"record {idx} references nodes outside the global graph"
        ids = record.node_ids.tolist()
        for u, v in record.edges.tolist():
            pair = (ids[u], ids[v])
            if pair not in edges:
                return f"record {idx} edge {pair} is not a global edge"
        if not 0 <= record.label < bundle.num_classes:
            return f"record {idx} label {record.label} out of range"
    return None

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subgraph_infomax.data import (
    DatasetBundle,
    ExpectedStats,
    ObservationProtocol,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_edge_file,
    load_embedding_file,
    load_split_file,
    load_subgraph_file,
    make_splits,
    sample_observed,
    save_bundle,
    validate_bundle,
)
from subgraph_infomax.graph import GlobalGraph, SubgraphRecord


def ordered_record():
    return SubgraphRecord(
        node_ids=(1, 2, 3, 4, 5),
        edge_pairs=(),
        label=0,
        observation_order=(4, 2, 5, 1, 3),
    )


def big_record(n=30):
    return SubgraphRecord(node_ids=tuple(range(n)), edge_pairs=(), label=0)


class TestSampleObserved:
    def test_ordered_prefix(self):
        protocol = ObservationProtocol(n_obs=3, ordered=True, train_jitter=False)
        got = sample_observed(ordered_record(), protocol, "train", np.random.default_rng(0))
        assert got == (4, 2, 5)

    def test_ordered_always_prefix_property(self):
        record = ordered_record()
        for n_obs in range(1, 6):
            protocol = ObservationProtocol(n_obs=n_obs, ordered=True, train_jitter=False)
            got = sample_observed(record, protocol, "val")
            assert got == record.observation_order[:n_obs]

    def test_ordered_without_order_rejected(self):
        protocol = ObservationProtocol(n_obs=2, ordered=True)
        with pytest.raises(ValueError):
            sample_observed(big_record(), protocol, "val")

    def test_eval_sets_frozen_across_calls(self):
        protocol = ObservationProtocol(n_obs=4)
        record = big_record()
        first = sample_observed(record, protocol, "val")
        second = sample_observed(record, protocol, "val")
        assert first == second

    def test_val_and_test_sets_differ_in_general(self):
        protocol = ObservationProtocol(n_obs=6)
        record = big_record()
        assert sample_observed(record, protocol, "val") != sample_observed(record, protocol, "test")

    def test_eval_seed_changes_frozen_sets(self):
        record = big_record()
        a = sample_observed(record, ObservationProtocol(n_obs=5, eval_fixed_seed=1), "test")
        b = sample_observed(record, ObservationProtocol(n_obs=5, eval_fixed_seed=2), "test")
        assert a != b

    def test_train_jitter_covers_all_five_sizes(self):
        protocol = ObservationProtocol(n_obs=8, train_jitter=True)
        record = big_record()
        rng = np.random.default_rng(0)
        sizes = {
            len(sample_observed(record, protocol, "train", rng)) for _ in range(1000)
        }
        assert sizes == {6, 7, 8, 9, 10}

    def test_train_resampling_varies(self):
        protocol = ObservationProtocol(n_obs=4, train_jitter=False)
        record = big_record()
        rng = np.random.default_rng(0)
        seen = {sample_observed(record, protocol, "train", rng) for _ in range(100)}
        assert len(seen) >= 2

    def test_sizes_clamped_to_subgraph(self):
        small = SubgraphRecord(node_ids=(0, 1, 2), edge_pairs=(), label=0)
        protocol = ObservationProtocol(n_obs=10, train_jitter=False)
        assert len(sample_observed(small, protocol, "val")) == 3

    def test_train_requires_rng(self):
        protocol = ObservationProtocol(n_obs=2)
        with pytest.raises(ValueError):
            sample_observed(big_record(), protocol, "train")


class TestMakeSplits:
    def test_seventy_fifteen_fifteen(self):
        assignment = make_splits(100, (0.7, 0.15, 0.15), seed=0)
        counts = {s: assignment.count(s) for s in ("train", "val", "test")}
        assert counts == {"train": 70, "val": 15, "test": 15}

    def test_all_train(self):
        assert set(make_splits(10, (1.0, 0.0, 0.0), seed=0)) == {"train"}

    def test_deterministic_per_seed(self):
        assert make_splits(50, (0.7, 0.15, 0.15), seed=3) == make_splits(50, (0.7, 0.15, 0.15), seed=3)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            make_splits(10, (1.2, -0.2, 0.0), seed=0)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_splits(10, (0.5, 0.2, 0.2), seed=0)


class TestSynthetic:
    def test_deterministic_bundle(self):
        spec = SyntheticSpec(num_nodes=80, num_subgraphs=20, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.graph.edges == b.graph.edges
        assert all(
            ra.node_ids == rb.node_ids and ra.label == rb.label
            for ra, rb in zip(a.records, b.records)
        )
        assert np.array_equal(a.embedding_values, b.embedding_values)
        assert a.splits == b.splits

    def test_bundle_passes_validator(self):
        bundle = generate_synthetic(SyntheticSpec(num_nodes=120, num_subgraphs=30, seed=2))
        validate_bundle(bundle)

    def test_sizes_respect_observation_floor(self):
        spec = SyntheticSpec(num_nodes=100, num_subgraphs=15, n_obs=6,
                             subgraph_size_min=4, subgraph_size_max=12, seed=3)
        bundle = generate_synthetic(spec)
        assert all(len(r.node_ids) >= spec.n_obs + 2 for r in bundle.records)

    def test_noise_free_features_reveal_community(self):
        # With zero noise and zero leak, every node of a subgraph carries its
        # community's exact indicator pattern: any 4 observed rows vote the label.
        spec = SyntheticSpec(
            num_nodes=100, num_subgraphs=12, feature_noise=0.0,
            community_leak=0.0, seed=4,
        )
        bundle = generate_synthetic(spec)
        features = bundle.embedding_values
        for record in bundle.records:
            for start in range(0, len(record.node_ids) - 3):
                block = [features[n] for n in record.node_ids[start : start + 4]]
                votes = [int(np.argmax(row[: spec.communities])) for row in block]
                majority = np.bincount(votes).argmax()
                assert majority == record.label

    def test_observation_order_is_walk_order(self):
        bundle = generate_synthetic(SyntheticSpec(num_nodes=80, num_subgraphs=10, seed=6))
        for record in bundle.records:
            assert record.observation_order is not None
            assert sorted(record.observation_order) == list(record.node_ids)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("p_intra", 1.5, "p_intra must be in [0, 1], got 1.5"),
            ("p_intra", float("nan"), "p_intra must be in [0, 1], got nan"),
            ("p_inter", -0.2, "p_inter must be in [0, 1], got -0.2"),
            ("feature_noise", -1.0, "feature_noise must be >= 0, got -1.0"),
            ("feature_noise", float("nan"), "feature_noise must be >= 0, got nan"),
            ("split_ratios", (0.5, 0.5), "split_ratios: need 3 ratios (train, val, test), got 2"),
        ],
    )
    def test_out_of_range_field_rejected(self, field, value, message):
        with pytest.raises(ValueError) as err:
            SyntheticSpec(**{field: value})
        assert str(err.value) == message

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_nodes=10, subgraph_size_max=50)


class TestBundle:
    def test_frozen_eval_consistent_across_instances(self):
        spec = SyntheticSpec(num_nodes=90, num_subgraphs=16, seed=8)
        protocol = ObservationProtocol(n_obs=3)
        a = generate_synthetic(spec).frozen_eval(protocol, "test")
        b = generate_synthetic(spec).frozen_eval(protocol, "test")
        assert a == b

    def test_frozen_eval_rejects_train(self):
        bundle = generate_synthetic(SyntheticSpec(num_nodes=90, num_subgraphs=16, seed=8))
        with pytest.raises(ValueError):
            bundle.frozen_eval(ObservationProtocol(), "train")

    def test_majority_class_rate(self):
        graph = GlobalGraph(4, [(0, 1), (1, 0)])
        records = tuple(
            SubgraphRecord(node_ids=(0, 1), edge_pairs=((0, 1), (1, 0)), label=lab)
            for lab in (0, 0, 1)
        )
        bundle = DatasetBundle(graph, records, 2, ("test", "test", "test"))
        assert bundle.majority_class_rate("test") == pytest.approx(2 / 3)

    def test_validator_rejects_foreign_edge(self):
        graph = GlobalGraph(4, [(0, 1), (1, 0)])
        record = SubgraphRecord(node_ids=(2, 3), edge_pairs=((2, 3),), label=0)
        bundle = DatasetBundle(graph, (record,), 1, ("train",))
        with pytest.raises(ValueError, match="not a global edge"):
            validate_bundle(bundle)

    def test_validator_reports_the_first_failure_in_record_order(self):
        # All record edges are looked up at once; the error must still name
        # the first failing record, and its first missing edge.
        graph = GlobalGraph(5, [(0, 1), (1, 0), (3, 4)])
        good = SubgraphRecord(node_ids=(0, 1), edge_pairs=((0, 1), (1, 0)), label=0)
        bad_edges = SubgraphRecord(node_ids=(2, 3, 4), edge_pairs=((3, 4), (2, 3), (4, 3)), label=0)
        bad_label = SubgraphRecord(node_ids=(0, 1), edge_pairs=(), label=5)
        splits = ("train",) * 3
        with pytest.raises(ValueError, match=r"^record 1 edge \(2, 3\) is not a global edge$"):
            validate_bundle(DatasetBundle(graph, (good, bad_edges, bad_label), 1, splits))
        with pytest.raises(ValueError, match=r"^record 1 label 5 out of range$"):
            validate_bundle(DatasetBundle(graph, (good, bad_label, bad_edges), 1, splits))


class TestFileRoundTrip:
    def test_save_and_load_reproduce_bundle(self, tmp_path):
        spec = SyntheticSpec(num_nodes=70, num_subgraphs=12, seed=9)
        bundle = generate_synthetic(spec)
        paths = save_bundle(bundle, tmp_path)
        loaded = load_dataset(
            paths["edges"],
            paths["subgraphs"],
            embeddings=paths["embeddings"],
            split=paths["splits"],
        )
        assert loaded.graph.num_nodes == bundle.graph.num_nodes
        assert loaded.graph.edges == bundle.graph.edges
        assert loaded.splits == bundle.splits
        assert np.array_equal(loaded.embedding_values, bundle.embedding_values)
        for got, want in zip(loaded.records, bundle.records):
            assert got.node_ids == want.node_ids
            assert got.label == want.label
            assert got.edge_pairs == want.edge_pairs
            assert got.observation_order == want.observation_order

    def test_record_edges_are_the_global_induced_edges(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(num_nodes=70, num_subgraphs=12, seed=9))
        paths = save_bundle(bundle, tmp_path)
        loaded = load_dataset(paths["edges"], paths["subgraphs"], embeddings=paths["embeddings"])
        for built in (bundle, loaded):
            for record in built.records:
                induced = built.graph.induced_edges(record.node_ids)
                assert record.edge_pairs == tuple(map(tuple, induced.tolist()))

    def test_malformed_edge_line_reports_lineno(self, tmp_path):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("0 1\n0 1 2\n", encoding="utf-8")
        sub_file = tmp_path / "subs.tsv"
        sub_file.write_text("0\t0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="edges.txt:2"):
            load_dataset(edge_file, sub_file)

    def test_non_integer_split_index_reports_lineno(self, tmp_path):
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n1\t1,2\n", encoding="utf-8")
        (tmp_path / "splits.tsv").write_text("0\ttrain\none\ttest\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"splits\.tsv:2: non-integer record index 'one'"):
            load_dataset(
                tmp_path / "edges.txt", tmp_path / "subs.tsv", split=tmp_path / "splits.tsv"
            )

    def test_negative_record_node_id_reports_lineno(self, tmp_path):
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("# header\n0\t0,1\n1\t1,-2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"subs\.tsv:3: node ids must be nonnegative$"):
            load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv")

    def test_split_index_listed_twice_reports_lineno(self, tmp_path):
        # The later line used to win silently: ('test', 'val', 'test').
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n2 3\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n1\t1,2\n0\t2,3\n", encoding="utf-8")
        (tmp_path / "splits.tsv").write_text(
            "0\ttrain\n1\tval\n2\ttest\n0\ttest\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match=r"splits\.tsv:4: record index 0 assigned twice$"):
            load_dataset(
                tmp_path / "edges.txt", tmp_path / "subs.tsv", split=tmp_path / "splits.tsv"
            )

    def test_short_embedding_row_reports_lineno(self, tmp_path):
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n1\t1,2\n", encoding="utf-8")
        (tmp_path / "emb.txt").write_text("0.1 0.2\n0.3\n0.5 0.6\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb\.txt:2: 1 embedding values, expected 2"):
            load_dataset(
                tmp_path / "edges.txt", tmp_path / "subs.tsv", embeddings=tmp_path / "emb.txt"
            )

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_embedding_reports_lineno(self, tmp_path, entry):
        path = tmp_path / "emb.txt"
        path.write_text(f"0.1 0.2\n{entry} 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb\.txt:2: non-finite embedding entry"):
            load_embedding_file(path, 2)

    def test_non_utf8_line_reports_lineno(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"0 1\n1 \xff2\n")
        with pytest.raises(ValueError, match=r"edges\.txt:2: not UTF-8 text"):
            load_dataset(path, path)

    def test_embedding_and_subgraph_files_skip_comments_and_blank_lines(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text("# node features\n0.1 0.2\n\n  # indented\n  0.3 0.4  \n", encoding="utf-8")
        assert load_embedding_file(emb, 2).tolist() == [[0.1, 0.2], [0.3, 0.4]]
        subs = tmp_path / "subs.tsv"
        subs.write_text("  # label<TAB>ids\n 1\t0,1\t\n\n", encoding="utf-8")
        assert load_subgraph_file(subs) == [(1, [0, 1])]

    def test_single_node_subgraphs_excluded(self, tmp_path, caplog):
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n1\t2\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            bundle = load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv")
        assert len(bundle.records) == 1
        assert any("single-node" in r.message for r in caplog.records)

    def test_empty_subgraph_file_warns(self, tmp_path, caplog):
        (tmp_path / "edges.txt").write_text("0 1\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("", encoding="utf-8")
        with caplog.at_level("WARNING"):
            bundle = load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv")
        assert bundle.records == ()
        assert any("empty" in r.message for r in caplog.records)

    def test_expected_stats_mismatch_raises(self, tmp_path):
        (tmp_path / "edges.txt").write_text("0 1\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="subgraph count"):
            load_dataset(
                tmp_path / "edges.txt",
                tmp_path / "subs.tsv",
                expected=ExpectedStats(num_subgraphs=99),
            )

    def test_expected_stats_match_passes(self, tmp_path):
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("5\t0,1\n7\t1,2\n", encoding="utf-8")
        bundle = load_dataset(
            tmp_path / "edges.txt",
            tmp_path / "subs.tsv",
            expected=ExpectedStats(num_subgraphs=2, num_classes=2, num_global_nodes=3),
        )
        assert bundle.num_classes == 2
        assert {r.label for r in bundle.records} == {0, 1}

    def test_undirected_symmetrization(self, tmp_path):
        (tmp_path / "edges.txt").write_text("0 1\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n", encoding="utf-8")
        bundle = load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv")
        assert bundle.graph.edges == ((0, 1), (1, 0))
        directed = load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv", directed=True)
        assert directed.graph.edges == ((0, 1),)


# The loaded output of three readers, recorded before the readers shared one
# line filter; blank lines and unindented '#' lines must not change it.
READER_PINS = {
    "edges": (
        load_edge_file,
        ["0 1", "1 2", "2 0"],
        (3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]),
    ),
    "subgraphs": (
        load_subgraph_file,
        ["1\t0,1,2", "0\t2,0"],
        [(1, [0, 1, 2]), (0, [2, 0])],
    ),
    "splits": (
        lambda path: load_split_file(path, 2),
        ["0\ttrain", "1\ttest"],
        ("train", "test"),
    ),
}


@pytest.mark.parametrize("kind", sorted(READER_PINS))
@pytest.mark.parametrize("commented", [False, True], ids=["plain", "commented"])
def test_reader_output_is_pinned(tmp_path, kind, commented):
    read, lines, want = READER_PINS[kind]
    if commented:
        lines = ["# header", "", lines[0], "#", "", *lines[1:], "# trailer", ""]
    path = tmp_path / f"{kind}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert read(path) == want

import importlib.util
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subgraph_infomax import data as data_module
from subgraph_infomax.data import (
    DatasetBundle,
    ExpectedStats,
    ObservationProtocol,
    SyntheticSpec,
    _read_lines,
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

    @pytest.mark.parametrize("ordered, jitter", [(False, True), (False, False), (True, True)])
    def test_train_requires_rng(self, ordered, jitter):
        protocol = ObservationProtocol(n_obs=2, ordered=ordered, train_jitter=jitter)
        with pytest.raises(ValueError, match="^training-stage sampling requires an rng$"):
            sample_observed(ordered_record(), protocol, "train")

    def test_ordered_fixed_size_train_draw_needs_no_rng(self):
        protocol = ObservationProtocol(n_obs=2, ordered=True, train_jitter=False)
        assert sample_observed(ordered_record(), protocol, "train") == (4, 2)


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
        assert np.array_equal(a.graph.pairs(), b.graph.pairs())
        assert all(
            ra.node_ids == rb.node_ids and ra.label == rb.label
            for ra, rb in zip(a.records, b.records)
        )
        assert np.array_equal(a.embedding_values, b.embedding_values)
        assert a.splits == b.splits

    def test_bundle_passes_validator(self):
        bundle = generate_synthetic(SyntheticSpec(num_nodes=120, num_subgraphs=30, seed=2))
        validate_bundle(bundle)

    def test_sizes_lie_within_the_spec_bounds(self):
        spec = SyntheticSpec(num_nodes=100, num_subgraphs=30,
                             subgraph_size_min=4, subgraph_size_max=7, seed=3)
        sizes = {len(r.node_ids) for r in generate_synthetic(spec).records}
        assert sizes == {4, 5, 6, 7}

    def test_a_record_larger_than_its_community_fills_from_the_graph(self, subprocess_env):
        # With no leak a walk stays home; a 12-node record of a 10-node
        # community takes its last nodes from the other community.
        code = (
            "from subgraph_infomax.data import SyntheticSpec, generate_synthetic\n"
            "spec = SyntheticSpec(num_nodes=20, communities=2, subgraph_size_min=12,\n"
            "                     subgraph_size_max=12, community_leak=0.0, num_subgraphs=4)\n"
            "print(sorted({len(r.node_ids) for r in generate_synthetic(spec).records}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=subprocess_env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[12]"

    def test_minimum_size_above_the_maximum_rejected(self):
        with pytest.raises(ValueError) as err:
            SyntheticSpec(subgraph_size_min=9, subgraph_size_max=7)
        assert str(err.value) == "subgraph_size_min must be <= the maximum size (7), got 9"

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
            ("feature_noise", -1.0, "feature_noise must be finite and >= 0, got -1.0"),
            ("feature_noise", float("nan"), "feature_noise must be finite and >= 0, got nan"),
            ("feature_noise", math.inf, "feature_noise must be finite and >= 0, got inf"),
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
    def test_frozen_views_consistent_across_instances(self):
        spec = SyntheticSpec(num_nodes=90, num_subgraphs=16, seed=8)
        protocol = ObservationProtocol(n_obs=3)
        a, b = (generate_synthetic(spec).frozen_views(protocol, "test") for _ in range(2))
        assert a.keys() == b.keys()
        assert all(a[i].node_ids == b[i].node_ids for i in a)
        assert all(np.array_equal(a[i].edges, b[i].edges) for i in a)

    def test_frozen_views_reject_train(self):
        bundle = generate_synthetic(SyntheticSpec(num_nodes=90, num_subgraphs=16, seed=8))
        with pytest.raises(ValueError):
            bundle.frozen_views(ObservationProtocol(), "train")

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
        assert np.array_equal(loaded.graph.pairs(), bundle.graph.pairs())
        assert loaded.splits == bundle.splits
        assert np.array_equal(loaded.embedding_values, bundle.embedding_values)
        for got, want in zip(loaded.records, bundle.records):
            assert got.node_ids == want.node_ids
            assert got.label == want.label
            assert np.array_equal(got.edges, want.edges)
            assert got.observation_order == want.observation_order

    def test_round_trip_keeps_a_last_node_without_edges(self, tmp_path):
        # The edge file ends before node 59, which has no edge; the node count
        # comes from the embedding rows.  Before, loading raised "60
        # embedding rows for 59 nodes".
        spec = SyntheticSpec(num_nodes=60, p_intra=0.03, p_inter=0.0, num_subgraphs=10, seed=2)
        bundle = generate_synthetic(spec)
        assert not bundle.graph.neighbors(59).size
        paths = save_bundle(bundle, tmp_path)
        loaded = load_dataset(
            paths["edges"], paths["subgraphs"], embeddings=paths["embeddings"], split=paths["splits"]
        )
        assert loaded.graph.num_nodes == 60
        assert np.array_equal(loaded.graph.pairs(), bundle.graph.pairs())
        assert np.array_equal(loaded.embedding_values, bundle.embedding_values)
        for got, want in zip(loaded.records, bundle.records):
            assert got.node_ids == want.node_ids
            assert np.array_equal(got.edges, want.edges)

    def test_record_id_outside_the_edge_file_reports_lineno(self, tmp_path):
        # Before, the graph grew to the largest record id: 3,000,001 nodes.
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n0\t1,3000000\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=r"subs\.tsv:2: node id 3000000 is not a node of the graph \(3 nodes\)$"
        ):
            load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv")

    def test_embedding_rows_set_the_node_count(self, tmp_path):
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n1\t2,3\n0\t3,4\n", encoding="utf-8")
        (tmp_path / "emb.txt").write_text("0\n1\n2\n3\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=r"subs\.tsv:3: node id 4 is not a node of the graph \(4 nodes\)$"
        ):
            load_dataset(
                tmp_path / "edges.txt", tmp_path / "subs.tsv", embeddings=tmp_path / "emb.txt"
            )
        (tmp_path / "subs.tsv").write_text("0\t0,1\n1\t2,3\n", encoding="utf-8")
        bundle = load_dataset(
            tmp_path / "edges.txt", tmp_path / "subs.tsv", embeddings=tmp_path / "emb.txt"
        )
        assert bundle.graph.num_nodes == 4
        assert bundle.records[1].edges.shape == (0, 2)

    def test_too_few_embedding_rows_for_the_edge_file(self, tmp_path):
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n", encoding="utf-8")
        (tmp_path / "emb.txt").write_text("0\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb\.txt: 2 embedding rows for 3 nodes$"):
            load_dataset(
                tmp_path / "edges.txt", tmp_path / "subs.tsv", embeddings=tmp_path / "emb.txt"
            )

    def test_empty_dataset_reports_the_edge_file(self, tmp_path):
        # Before, the graph constructor raised "num_nodes must be >= 1, got 0",
        # which names no file.
        (tmp_path / "edges.txt").write_text("# no edges\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("", encoding="utf-8")
        edge_file = str(tmp_path / "edges.txt")
        with pytest.raises(ValueError) as info:
            load_dataset(edge_file, tmp_path / "subs.tsv")
        assert str(info.value).startswith(f"{edge_file}: ")
        assert "no edges and no embedding rows" in str(info.value)

    def test_record_edges_are_the_global_induced_edges(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(num_nodes=70, num_subgraphs=12, seed=9))
        paths = save_bundle(bundle, tmp_path)
        loaded = load_dataset(paths["edges"], paths["subgraphs"], embeddings=paths["embeddings"])
        for built in (bundle, loaded):
            for record in built.records:
                induced = built.graph.induced_edges(record.node_ids)
                assert np.array_equal(np.array(record.node_ids)[record.edges], induced)

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

    # Each token is an id the edge reader refuses; Python's ``int`` took
    # every one ("1_0,２" loaded as [10, 2]).
    @pytest.mark.parametrize("token", ["1_0", "\uff12", "\u0661", "0x1", "1.0", "9223372036854775808"])
    def test_subgraph_ids_follow_the_edge_id_grammar(self, tmp_path, token):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text(f"0 {token}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"edges\.txt:1: non-integer node id"):
            load_edge_file(edge_file)
        path = tmp_path / "subs.tsv"
        path.write_text(f"0\t1,2\n0\t1,{token}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"subs\.tsv:2: bad record line"):
            load_subgraph_file(path, 20)
        path.write_text(f"0\t1,2\n{token}\t1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"subs\.tsv:2: bad record line"):
            load_subgraph_file(path, 20)

    @pytest.mark.parametrize("token", ["1_0", "\uff11", "+0x1"])
    def test_split_indices_follow_the_edge_id_grammar(self, tmp_path, token):
        path = tmp_path / "splits.tsv"
        path.write_text(f"0\ttrain\n{token}\ttest\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"splits\.tsv:2: non-integer record index '{re.escape(token)}'"):
            load_split_file(path, 2)

    def test_ids_the_edge_reader_takes_load_everywhere(self, tmp_path):
        # A sign, leading zeros and surrounding whitespace, as np.loadtxt reads them.
        path = tmp_path / "subs.tsv"
        path.write_text("+1\t-0, 007 ,+2\n", encoding="utf-8")
        assert load_subgraph_file(path, 8) == [(1, [0, 7, 2])]
        path.write_text("+1\ttrain\n 00\ttest\n", encoding="utf-8")
        assert load_split_file(path, 2) == ("test", "train")

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
        assert load_subgraph_file(subs, 2) == [(1, [0, 1])]

    def test_single_node_subgraphs_excluded(self, tmp_path, caplog):
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n1\t2\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            bundle = load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv")
        assert len(bundle.records) == 1
        assert any("single-node" in r.message for r in caplog.records)

    def test_classes_come_from_the_kept_records(self, tmp_path):
        # Label 7 is carried only by the excluded single-node record; it used
        # to count as a second class that no record has.
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n2 3\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("0\t0,1\n0\t1,2\n7\t3\n", encoding="utf-8")
        bundle = load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv")
        assert bundle.num_classes == 1
        assert [r.label for r in bundle.records] == [0, 0]

    def test_round_trip_keeps_classes_past_an_excluded_record(self, tmp_path):
        # Label 3 is carried only by a single-node record.  Before, it took
        # class 0, so 5 and 9 loaded as classes 1 and 2 of 3, and the saved
        # bundle reloaded as 2 classes with its labels renumbered to 0 and 1.
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "subs.tsv").write_text("5\t0,1\n3\t2\n9\t1,2\n", encoding="utf-8")
        bundle = load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv")
        assert bundle.num_classes == 2
        assert [r.label for r in bundle.records] == [0, 1]
        paths = save_bundle(bundle, tmp_path / "saved")
        loaded = load_dataset(paths["edges"], paths["subgraphs"], split=paths["splits"])
        assert loaded.num_classes == bundle.num_classes
        assert [r.label for r in loaded.records] == [r.label for r in bundle.records]
        assert loaded.splits == bundle.splits

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
        assert bundle.graph.pairs().tolist() == [[0, 1], [1, 0]]
        directed = load_dataset(tmp_path / "edges.txt", tmp_path / "subs.tsv", directed=True)
        assert directed.graph.pairs().tolist() == [[0, 1]]


# The loaded output of three readers, recorded before the readers shared one
# line filter; blank lines and unindented '#' lines must not change it.  The
# edge reader returns an array, compared as its ``tolist()``.
READER_PINS = {
    "edges": (
        lambda path: (lambda n, pairs: (n, pairs.tolist()))(*load_edge_file(path)),
        ["0 1", "1 2", "2 0"],
        (3, [[0, 1], [1, 0], [1, 2], [2, 1], [2, 0], [0, 2]]),
    ),
    "subgraphs": (
        lambda path: load_subgraph_file(path, 3),
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


# The edge and embedding readers parse a whole file with one ``np.loadtxt``
# call.  The per-line readers they replaced stay here as the reference.


def per_line_edge_file(path, directed=False):
    edges = []
    max_id = -1
    for lineno, line in _read_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'src dst', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"{path}:{lineno}: node ids must be nonnegative")
        edges.append((u, v))
        if not directed:
            edges.append((v, u))
        max_id = max(max_id, u, v)
    return max_id + 1, edges


def per_line_embedding_file(path, num_nodes):
    rows = []
    for lineno, line in _read_lines(path):
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric embedding entry") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: non-finite embedding entry")
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: {len(row)} embedding values, expected {len(rows[0])}")
        rows.append(row)
    values = np.array(rows, dtype=np.float64)
    if values.shape[0] < num_nodes:
        raise ValueError(f"{path}: {values.shape[0]} embedding rows for {num_nodes} nodes")
    return values


def _khop_input(out_dir):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "khop_input.py"
    spec = importlib.util.spec_from_file_location("khop_input", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    paths = module.write_khop_input(1, out_dir)["paths"]
    return {kind: paths[name] for kind, name in (
        ("edges", "edges.txt"), ("subgraphs", "subgraphs.tsv"),
        ("embeddings", "embeddings.txt"), ("splits", "splits.tsv"),
    )}


@pytest.fixture(scope="module", params=["synthetic", "khop-input"])
def dataset_files(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    if request.param == "khop-input":
        return _khop_input(out)
    return save_bundle(generate_synthetic(SyntheticSpec()), out)


@pytest.mark.parametrize("directed", [False, True])
def test_readers_match_the_per_line_readers(dataset_files, directed):
    num_nodes, pairs = load_edge_file(dataset_files["edges"], directed=directed)
    want_nodes, want_pairs = per_line_edge_file(dataset_files["edges"], directed=directed)
    assert num_nodes == want_nodes
    assert pairs.dtype == np.int64 and pairs.shape == (len(want_pairs), 2)
    assert pairs.tolist() == [list(pair) for pair in want_pairs]
    values = load_embedding_file(dataset_files["embeddings"], num_nodes)
    want = per_line_embedding_file(dataset_files["embeddings"], num_nodes)
    assert values.dtype == want.dtype and values.shape == want.shape
    assert values.tobytes() == want.tobytes()


@pytest.mark.parametrize("directed", [False, True])
def test_edge_reader_matches_on_the_commented_pin_file(tmp_path, directed):
    _, lines, _ = READER_PINS["edges"]
    lines = ["# header", "", lines[0], "#", "", *lines[1:], "# trailer", ""]
    path = tmp_path / "edges.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    num_nodes, pairs = load_edge_file(path, directed=directed)
    want_nodes, want_pairs = per_line_edge_file(path, directed=directed)
    assert (num_nodes, pairs.tolist()) == (want_nodes, [list(pair) for pair in want_pairs])


def test_load_dataset_matches_the_per_line_readers(dataset_files, monkeypatch):
    def load():
        return load_dataset(
            dataset_files["edges"], dataset_files["subgraphs"],
            embeddings=dataset_files["embeddings"], split=dataset_files["splits"],
        )

    got = load()
    monkeypatch.setattr(data_module, "load_edge_file", per_line_edge_file)
    monkeypatch.setattr(data_module, "load_embedding_file", per_line_embedding_file)
    want = load()
    for name in ("_codes", "_out_indptr", "_out_indices", "_nbr_indptr", "_nbr_indices"):
        a, b = getattr(got.graph, name), getattr(want.graph, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.embedding_values.tobytes() == want.embedding_values.tobytes()
    assert got.splits == want.splits and got.num_classes == want.num_classes
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert (a.node_ids, a.label, a.observation_order) == (b.node_ids, b.label, b.observation_order)
        assert a.edges.tobytes() == b.edges.tobytes()


def test_edge_reader_memory_stays_near_its_output(tmp_path):
    # A paper-scale edge file must load in bounded memory.  The per-line
    # reader peaked at 5.7x the bytes of the pairs it returned.
    path = tmp_path / "edges.txt"
    np.savetxt(path, np.random.default_rng(0).integers(0, 14587, (100_000, 2)), fmt="%d")
    tracemalloc.start()
    try:
        _, pairs = load_edge_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * np.asarray(pairs, dtype=np.int64).nbytes


class TestTableGrammar:
    """What the edge and embedding readers accept beyond the per-line
    readers they replaced, and what they no longer accept; each choice is
    numpy's."""

    def read(self, tmp_path, text, reader):
        path = tmp_path / "table.txt"
        path.write_bytes(text.encode("utf-8"))
        return reader(path)

    def test_trailing_comments_are_cut(self, tmp_path):
        _, pairs = self.read(tmp_path, "0 1 # first\n1 2#second\n", load_edge_file)
        assert pairs.tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]
        values = self.read(tmp_path, "0.5 1 # row 0\n", lambda p: load_embedding_file(p, 1))
        assert values.tolist() == [[0.5, 1.0]]

    def test_lines_break_at_lf_cr_and_crlf(self, tmp_path):
        _, pairs = self.read(tmp_path, "0 1\r1 2\r\n2 3\n3 4", load_edge_file)
        assert pairs[::2].tolist() == [[0, 1], [1, 2], [2, 3], [3, 4]]

    @pytest.mark.parametrize("space", ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
    def test_unicode_whitespace_separates_fields(self, tmp_path, space):
        # Whitespace to str.split too; none of these ends a line.
        _, pairs = self.read(tmp_path, f"0{space}1\n{space}+1 2{space}\n", load_edge_file)
        assert pairs[::2].tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("token", ["1_0", "\uff11", "0x1", "1.0", "1e3", "99999999999999999999"])
    def test_ids_are_plain_ascii_int64_decimals(self, tmp_path, token):
        # int() accepts the first two (and an id past int64).
        with pytest.raises(ValueError, match=rf"table\.txt:2: non-integer node id in '{token} 2'$"):
            self.read(tmp_path, f"0 1\n{token} 2\n", load_edge_file)

    @pytest.mark.parametrize("token", ["1_0", "\uff11", "0x1"])
    def test_embedding_entries_are_ascii_decimals(self, tmp_path, token):
        # float() accepts the first two.
        with pytest.raises(ValueError, match=r"table\.txt:2: non-numeric embedding entry$"):
            self.read(tmp_path, f"0.5\n{token}\n", lambda p: load_embedding_file(p, 2))

    @pytest.mark.parametrize("token", ["Infinity", "-inf", "nan", "1e999"])
    def test_non_finite_spellings_are_rejected(self, tmp_path, token):
        with pytest.raises(ValueError, match=r"table\.txt:3: non-finite embedding entry$"):
            self.read(tmp_path, f"0.5\n+1.5\n{token}\n", lambda p: load_embedding_file(p, 3))

    def test_code_points_above_the_bmp_fail_as_a_located_error(self, tmp_path, subprocess_env):
        # numpy's loadtxt crashed the process at random on such a first row;
        # a child process reads the file 20 times with each reader.
        path, line = tmp_path / "table.txt", "1\U00100000 2"
        path.write_text(line + "\n", encoding="utf-8")
        script = (
            "import sys\n"
            "from subgraph_infomax.data import load_edge_file, load_embedding_file\n"
            "for read in (load_edge_file, lambda p: load_embedding_file(p, 1)):\n"
            "    for _ in range(20):\n"
            "        try:\n"
            "            read(sys.argv[1])\n"
            "        except ValueError as err:\n"
            "            message = str(err)\n"
            "    print(message)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=subprocess_env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"{path}:1: non-integer node id in {line!r}",
            f"{path}:1: non-numeric embedding entry",
        ]

    def test_a_bad_line_past_the_first_block_is_named(self, tmp_path):
        lines = ["0 1"] * 10_000
        lines[9_000] = "0 1 2"
        lines[9_500] = "0 -1"
        with pytest.raises(ValueError, match=r"table\.txt:9001: expected 'src dst', got '0 1 2'$"):
            self.read(tmp_path, "\n".join(lines), load_edge_file)


def test_save_bundle_writes_the_per_pair_edge_bytes(tmp_path):
    bundle = generate_synthetic(SyntheticSpec())
    edgeless = DatasetBundle(GlobalGraph(3, []), (), 1, ())
    for name, built in (("synthetic", bundle), ("edgeless", edgeless)):
        path = save_bundle(built, tmp_path / name)["edges"]
        want = "".join(f"{u} {v}\n" for u, v in built.graph.pairs().tolist()).encode("utf-8")
        assert Path(path).read_bytes() == want, name

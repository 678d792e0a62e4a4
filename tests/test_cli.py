import csv
import json
from pathlib import Path

import pytest

from subgraph_infomax.cli import build_run_config, main, parse_kv_file
from subgraph_infomax.data import SyntheticSpec, generate_synthetic, save_bundle


SMALL_KEYS = {
    "synthetic_nodes": "80",
    "synthetic_subgraphs": "20",
    "synthetic_size_min": "5",
    "synthetic_size_max": "8",
    "synthetic_seed": "13",
    "n_obs": "3",
    "hidden_dim": "8",
    "epochs": "1",
    "batch_size": "8",
    "seeds": "0",
}


FILES = {"edge_file": "e.txt", "subgraph_file": "s.tsv", "embedding_file": "x.txt"}


def write_config(tmp_path, extra=None):
    mapping = dict(SMALL_KEYS)
    mapping.update(extra or {})
    lines = [f"{key} = {value}" for key, value in mapping.items()]
    path = tmp_path / "run.conf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestConfigParsing:
    def test_kv_file_with_comments(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# comment\nvariant = ps-dgi  # inline\n\nlambda = 2.0\n", encoding="utf-8")
        mapping = parse_kv_file(path)
        assert mapping == {"variant": "ps-dgi", "lambda": "2.0"}

    def test_lambda_key_maps_to_single_stage_weight(self):
        config = build_run_config({"lambda": "2.5"})
        assert config.model.lambda_single == 2.5

    def test_seeds_and_protocol_keys(self):
        config = build_run_config({"seeds": "3,4", "n_obs": "6", "ordered": "true"})
        assert config.seeds == (3, 4)
        assert config.protocol.n_obs == 6
        assert config.protocol.ordered is True

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("no equals sign\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.conf:1"):
            parse_kv_file(path)

    def test_neighbor_cap_none(self):
        for raw in ("none", "inf"):
            assert build_run_config({"neighbor_cap": raw}).model.neighbor_cap is None

    def test_neighbor_cap_number_is_an_int(self):
        config = build_run_config({"neighbor_cap": "100", "variant": "khop"})
        assert config.model.neighbor_cap == 100
        assert isinstance(config.model.neighbor_cap, int)

    def test_every_scalar_field_has_a_key(self):
        from dataclasses import fields

        from subgraph_infomax.cli import KEYS
        from subgraph_infomax.data import ExpectedStats, ObservationProtocol, SyntheticSpec
        from subgraph_infomax.models import ModelConfig
        from subgraph_infomax.optim import AdamConfig
        from subgraph_infomax.train import DatasetFiles, RunConfig

        nested = {"model", "protocol", "synthetic", "files", "adam", "expected"}
        classes = (
            ModelConfig, ObservationProtocol, AdamConfig, RunConfig, SyntheticSpec,
            DatasetFiles, ExpectedStats,
        )
        keyed = {(cls, f.name) for cls in classes for f in fields(cls) if f.name not in nested}
        keyed.remove((SyntheticSpec, "split_ratios"))  # a synthetic bundle's splits are fixed
        targets = list(KEYS.values())
        assert len(targets) == len(set(targets)) and set(targets) == keyed
        assert KEYS["lambda"] == (ModelConfig, "lambda_single") and "lambda_single" not in KEYS
        assert KEYS["eval_seed"] == (ObservationProtocol, "eval_fixed_seed")
        assert {key for key, (cls, _) in KEYS.items() if cls is RunConfig} == {
            "epochs", "batch_size", "grad_accum", "seeds", "embedding_trainable",
        }
        assert sum(key.startswith("synthetic_") for key in KEYS) == 12
        assert {key for key in KEYS if key.startswith("expected_")} == {
            "expected_subgraphs", "expected_classes", "expected_global_nodes",
        }

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"seeds": "x", "embedding_trainable": "maybe"}, "^embedding_trainable: "),
            ({"epochs": "x", "lambda": "big"}, "^lambda: "),
            (
                {"edge_file": "e", "subgraph_file": "s", "embedding_file": "x",
                 "split_ratios": "a", "split_seed": "b"},
                "^split_seed: ",
            ),
        ],
    )
    def test_errors_follow_the_class_then_scalar_then_tuple_order(self, mapping, message):
        with pytest.raises(ValueError, match=message):
            build_run_config(mapping)

    def test_derived_keys_coerce_to_field_types(self):
        config = build_run_config(
            {"epsilon": "1e-6", "beta1": "0.8", "grad_accum": "2", "embedding_trainable": "no"}
        )
        assert config.adam.epsilon == 1e-6 and config.adam.beta1 == 0.8
        assert config.grad_accum == 2 and config.embedding_trainable is False

    def test_file_dataset_keys(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n", encoding="utf-8")
        (tmp_path / "s.tsv").write_text("0\t0,1\n", encoding="utf-8")
        config = build_run_config(
            {
                "edge_file": str(tmp_path / "e.txt"),
                "subgraph_file": str(tmp_path / "s.tsv"),
                "embedding_file": str(tmp_path / "x.txt"),
                "split_ratios": "0.8,0.1,0.1",
                "expected_classes": "1",
            }
        )
        assert config.synthetic is None
        assert config.files.split_ratios == (0.8, 0.1, 0.1)
        assert config.files.expected.num_classes == 1

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("epochs", "abc", "epochs: expected int, got 'abc'"),
            ("lambda", "big", "lambda: expected float, got 'big'"),
            ("ordered", "maybe", "ordered: expected bool, got 'maybe'"),
            ("neighbor_cap", "lots", "neighbor_cap: expected int, got 'lots'"),
            ("seeds", "0,x", "seeds: expected comma-separated ints, got '0,x'"),
            ("learning_rate", "nan", "learning_rate: expected a finite float, got 'nan'"),
            ("lambda", "nan", "lambda: expected a finite float, got 'nan'"),
            ("dropout", "inf", "dropout: expected a finite float, got 'inf'"),
            ("synthetic_noise", "nan", "synthetic_noise: expected a finite float, got 'nan'"),
            ("premixer", "bogus", "premixer must be mlp, attention or none, got 'bogus'"),
        ],
    )
    def test_bad_value_error_names_its_key(self, key, raw, message):
        with pytest.raises(ValueError) as err:
            build_run_config({key: raw})
        assert str(err.value) == message

    def test_bad_file_dataset_values_name_their_key(self):
        for ratios in ("0.8,a,0.1", "nan,0.5,0.5"):
            with pytest.raises(ValueError, match=r"^split_ratios: expected comma-separated floats"):
                build_run_config({**FILES, "split_ratios": ratios})
        with pytest.raises(ValueError, match=r"^expected_classes: expected int, got 'two'$"):
            build_run_config({**FILES, "expected_classes": "two"})

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"eval_seed": "-1"}, "eval_seed must be >= 0, got -1"),
            ({"seeds": "-1"}, "seeds must be >= 0, got -1"),
            ({"seeds": "0,-2,3"}, "seeds must be >= 0, got -2"),
            ({"synthetic_seed": "-3"}, "synthetic_seed must be >= 0, got -3"),
            ({**FILES, "split_seed": "-1"}, "split_seed must be >= 0, got -1"),
        ],
        ids=["eval-seed", "seeds", "seeds-entry", "synthetic-seed", "split-seed"],
    )
    def test_negative_seed_rejected_before_any_work(self, mapping, message):
        # numpy rejects a negative seed only when an rng is made from it,
        # which for eval_seed is after the first training epoch.
        with pytest.raises(ValueError) as err:
            build_run_config(mapping)
        assert str(err.value) == message
        zeros = {key: "0" for key in mapping}
        build_run_config({**mapping, **zeros})

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("synthetic_communities", "1", "must be >= 2, got 1"),
            ("synthetic_nodes", "3", "must be >= 2 per community (4), got 3"),
            ("synthetic_size_max", "400", "must be <= the node count (300), got 400"),
            ("synthetic_size_min", "1", "must be >= 2, got 1"),
            ("synthetic_feature_dim", "1", "must be >= the community count (2), got 1"),
            ("synthetic_leak", "1", "must be in [0, 1), got 1.0"),
            ("synthetic_p_intra", "1.5", "must be in [0, 1], got 1.5"),
            ("synthetic_p_inter", "-0.2", "must be in [0, 1], got -0.2"),
            ("synthetic_noise", "-1", "must be finite and >= 0, got -1.0"),
            ("synthetic_seed", "-3", "must be >= 0, got -3"),
        ],
    )
    def test_synthetic_range_error_names_its_key(self, key, raw, message):
        with pytest.raises(ValueError) as err:
            build_run_config({key: raw})
        assert str(err.value) == f"{key} {message}"

    @pytest.mark.parametrize(
        "mapping, message",
        [
            (
                {"subgraph_file": "s.tsv", "embedding_file": "x.txt", "split_file": "t.tsv"},
                "a file dataset needs edge_file$",
            ),
            ({"edge_file": "e.txt", "embedding_file": "x.txt"}, "a file dataset needs subgraph_file$"),
            (
                {"expected_classes": "2"},
                "a file dataset needs edge_file, subgraph_file, embedding_file$",
            ),
            (
                {"edge_file": "e.txt", "subgraph_file": "s.tsv", "synthetic_nodes": "80"},
                r"synthetic dataset keys \(synthetic_nodes\) and file dataset keys "
                r"\(edge_file, subgraph_file\) cannot be mixed",
            ),
            ({"dataset": "files"}, "unknown config keys: dataset"),
            (
                {"edge_file": "e.txt", "subgraph_file": "s.tsv", "split_file": "t.tsv"},
                "a file dataset needs embedding_file$",
            ),
            (
                {**FILES, "split_file": "t.tsv", "split_ratios": "0.5,0.25,0.25"},
                "^split_file fixes the splits; split_ratios would be ignored$",
            ),
            (
                {**FILES, "split_file": "t.tsv", "split_seed": "3"},
                "^split_file fixes the splits; split_seed would be ignored$",
            ),
            (
                {**FILES, "split_file": "t.tsv", "split_seed": "3", "split_ratios": "1,0,0"},
                "^split_file fixes the splits; split_ratios, split_seed would be ignored$",
            ),
        ],
    )
    def test_dataset_source_comes_from_the_keys_given(self, mapping, message):
        with pytest.raises(ValueError, match=message):
            build_run_config(mapping)

    def test_only_int_keys_spell_none(self):
        files = {"edge_file": "e.txt", "subgraph_file": "s.tsv"}
        config = build_run_config(
            {**files, "embedding_file": "inf", "split_file": "none", "expected_classes": "none"}
        )
        assert config.files.embedding_file == "inf" and config.files.split_file == "none"
        assert config.files.expected.num_classes is None

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("epochs = 2\n = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"c\.conf:2: expected 'key = value'"):
            parse_kv_file(path)

    @pytest.mark.parametrize("key", ["lamda", "max_positions", "use_global_induced_edges"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
            build_run_config({key: "5", "epochs": "3"})


class TestSubcommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate"],
            ["train"],
            ["evaluate", "--checkpoint", "missing.npz"],
            ["sweep-observed", "--sizes", "2"],
            ["sweep-lambda"],
            ["compare"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_config_subcommand_rejects_unknown_keys(self, tmp_path, argv):
        config = write_config(tmp_path, {"lamda": "5"})
        with pytest.raises(ValueError, match="lamda"):
            main(argv + ["--config", str(config), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_out_dir_is_not_a_config_key(self, tmp_path):
        config = write_config(tmp_path)
        argv = ["train", "--config", str(config), "--set", f"out_dir={tmp_path / 'wanted'}"]
        with pytest.raises(ValueError, match="^unknown config keys: out_dir$"):
            main(argv + ["--out", str(tmp_path / "got")])
        assert not (tmp_path / "wanted").exists() and not (tmp_path / "got").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-observed", "--sizes", "4,x"], "--sizes: expected comma-separated ints"),
            (["sweep-lambda", "--grid-khop", "inf"], "--grid-khop: expected comma-separated floats"),
            (["sweep-lambda", "--grid-second", "1,nan"], "--grid-second: expected comma-separated floats"),
        ],
        ids=["sizes", "grid-khop", "grid-second"],
    )
    def test_grid_flag_errors_name_the_flag(self, tmp_path, argv, message):
        config = write_config(tmp_path)
        with pytest.raises(ValueError) as err:
            main(argv + ["--config", str(config), "--out", str(tmp_path / "out")])
        assert str(err.value) == f"{message}, got {argv[-1]!r}"
        assert not (tmp_path / "out").exists()

    def test_file_dataset_without_embeddings_fails_before_reading(self, tmp_path):
        # The files do not exist: reading any of them would raise FileNotFoundError.
        argv = ["train", "--out", str(tmp_path / "out")]
        for key in ("edge_file", "subgraph_file", "split_file"):
            argv += ["--set", f"{key}={tmp_path / key}"]
        with pytest.raises(ValueError, match="^a file dataset needs embedding_file$"):
            main(argv)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratios", ["0.5,0.5", "0.5,0.25,0.25,0", "0.6,0.3,0.3", "1.5,-0.5,0"])
    def test_bad_split_ratios_fail_before_any_file_is_opened(self, tmp_path, monkeypatch, ratios):
        paths = save_bundle(generate_synthetic(SyntheticSpec(num_nodes=40, num_subgraphs=8)), tmp_path)
        argv = ["train", "--out", str(tmp_path / "out"), "--set", f"split_ratios={ratios}"]
        for key, kind in (("edge_file", "edges"), ("subgraph_file", "subgraphs"),
                          ("embedding_file", "embeddings")):
            argv += ["--set", f"{key}={paths[kind]}"]

        def no_open(*args, **kwargs):
            raise AssertionError(f"opened {args[0]!r} before the config was checked")

        monkeypatch.setattr("builtins.open", no_open)
        with pytest.raises(ValueError, match="^split_ratios: "):
            main(argv)
        monkeypatch.undo()
        assert not (tmp_path / "out").exists()

    def test_generate_rejects_file_dataset_keys(self, tmp_path):
        config = write_config(tmp_path, {"split_file": "t.tsv", "expected_classes": "2"})
        with pytest.raises(ValueError) as err:
            main(["generate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert str(err.value) == (
            "generate makes a synthetic bundle; it takes no file dataset keys "
            "(expected_classes, split_file)"
        )
        assert not (tmp_path / "out").exists()

    def test_sweep_flags_reject_a_repeated_value(self, tmp_path):
        config = write_config(tmp_path)
        argv = ["sweep-observed", "--sizes", "2,3,2", "--config", str(config)]
        with pytest.raises(ValueError, match="^sizes: 2 is repeated$"):
            main(argv + ["--out", str(tmp_path / "out")])
        argv = ["sweep-lambda", "--grid-second", "1,1", "--config", str(config)]
        with pytest.raises(ValueError, match="^lambda_second_grid: 1.0 is repeated$"):
            main(argv + ["--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "variants, keys, message",
        [
            ("", {}, "^variants must be nonempty$"),
            ("baseline,nope", {}, "^unknown model variant 'nope'"),
            ("khop,baseline,khop", {}, "^variants: 'khop' is repeated$"),
            (
                "ps-dgi,baseline", {"seeds": "0"},
                "^the t-test against baseline needs at least 2 seeds, got 1$",
            ),
            (
                "baseline,ps-dgi,ps-infograph", {"variant": "baseline", "batch_size": "1"},
                "^ps-infograph draws negatives from the other batch members; "
                "batch_size must be >= 2, got 1$",
            ),
            ("baseline,ps-dgi", {"seeds": "0,0"}, "^seeds: 0 is repeated$"),
        ],
        ids=[
            "empty", "unknown", "repeated", "baseline-one-seed",
            "batch-negatives-batch-one", "repeated-seeds",
        ],
    )
    def test_compare_rejects_bad_variants_before_training(
        self, tmp_path, monkeypatch, variants, keys, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the variants were checked")

        monkeypatch.setattr("subgraph_infomax.train.train_single_seed", no_training)
        config = write_config(tmp_path, {"seeds": "0,1", **keys})
        argv = ["compare", "--variants", variants, "--config", str(config)]
        with pytest.raises(ValueError, match=message):
            main(argv + ["--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_generate_writes_bundle_files(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "bundle"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
        for name in ("edges.txt", "subgraphs.tsv", "splits.tsv", "embeddings.txt"):
            assert (out / name).exists()

    def test_train_emits_metrics_manifest_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "params_seed0.npz").exists()
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seeds"] == [0]
        assert "versions" in manifest and "wall_time_seconds" in manifest
        with open(out / "metrics.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert "accuracy" in rows[0]

    def test_evaluate_loads_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(config), "--out", str(out)])
        code = main(
            [
                "evaluate",
                "--config", str(config),
                "--checkpoint", str(out / "params_seed0.npz"),
                "--stage", "test",
            ]
        )
        assert code == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_evaluate_offers_no_train_stage(self, tmp_path, monkeypatch, capsys):
        # Training observations are resampled, never frozen, so there is no
        # train-stage accuracy to report; argparse refuses before any loading.
        def no_loading(args):
            raise AssertionError("evaluate ran with --stage train")

        monkeypatch.setattr("subgraph_infomax.cli.cmd_evaluate", no_loading)
        config = write_config(tmp_path)
        argv = ["evaluate", "--config", str(config), "--checkpoint", "missing.npz"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--stage", "train"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'train'" in capsys.readouterr().err

    def test_set_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run2"
        assert (
            main(
                [
                    "train",
                    "--config", str(config),
                    "--set", "variant=baseline",
                    "--set", "epochs=1",
                    "--out", str(out),
                ]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["model"]["variant"] == "baseline"

    def test_sweep_lambda_writes_csvs(self, tmp_path):
        config = write_config(tmp_path, {"variant": "khop+ps-dgi", "pool_ratio": "0.5"})
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep-lambda",
                "--config", str(config),
                "--grid-khop", "3",
                "--grid-second", "2,0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "lambda_sweep_runs.csv").exists()
        assert (out / "lambda_sweep_summary.csv").exists()
        # The echo holds the lambdas the cells trained, not the config's 1.0.
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        model = manifest["config"]["model"]
        assert model["lambda_khop"] == 3.0 and model["lambda_second"] == [2.0, 0.5]
        assert {"grid_khop", "grid_second"}.isdisjoint(manifest)

    def test_sweep_observed_writes_csvs(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            ["sweep-observed", "--config", str(config), "--sizes", "2,3", "--out", str(out)]
        )
        assert code == 0
        with open(out / "observed_sweep_summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["protocol"]["n_obs"] == [2, 3] and "sizes" not in manifest

    def test_verify_quick_run(self, capsys):
        code = main(["verify", "--cgd-trials", "25", "--oracle-graphs", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_out_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBGRAPH_INFOMAX_OUT", str(tmp_path / "root"))
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config)]) == 0
        assert (tmp_path / "root" / "synthetic" / "edges.txt").exists()

import csv
import dataclasses
import inspect
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from subgraph_infomax.cli import main
from subgraph_infomax.data import ObservationProtocol, SyntheticSpec
from subgraph_infomax.models import VARIANTS, ModelConfig
from subgraph_infomax.optim import AdamConfig
from subgraph_infomax.train import (
    CSV_COLUMNS,
    DatasetFiles,
    MetricsRecord,
    RunConfig,
    SeedResult,
    compare,
    evaluate,
    load_bundle,
    sweep_lambda,
    sweep_observed,
    train,
    train_single_seed,
    unpaired_t_test,
    _batches,
    _summarize,
)

SMALL_SPEC = SyntheticSpec(
    num_nodes=80,
    communities=2,
    p_intra=0.25,
    p_inter=0.03,
    num_subgraphs=24,
    subgraph_size_min=5,
    subgraph_size_max=8,
    feature_dim=4,
    feature_noise=0.4,
    seed=13,
)


def small_config(variant="ps-dgi", epochs=2, seeds=(0,), **model_kwargs):
    return RunConfig(
        model=ModelConfig(variant=variant, hidden_dim=8, **model_kwargs),
        protocol=ObservationProtocol(n_obs=3),
        synthetic=SMALL_SPEC,
        adam=AdamConfig(learning_rate=3e-3),
        epochs=epochs,
        batch_size=8,
        seeds=seeds,
    )


def test_package_import_leaves_scipy_stats_unloaded(subprocess_env):
    # scipy.stats costs about a second to import; only unpaired_t_test needs it.
    # scipy itself is read only by write_manifest.
    code = (
        "import sys, subgraph_infomax\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
        "import subgraph_infomax.train\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=subprocess_env)


def test_compare_subcommand_smoke(tmp_path):
    out = tmp_path / "compare"
    argv = ["compare", "--variants", "baseline,khop+ps-dgi", "--out", str(out)]
    for item in ("epochs=1", "seeds=0,1", "learning_rate=0.003", "pool_ratio=0.25"):
        argv += ["--set", item]
    assert main(argv) == 0
    with open(out / "compare_runs.csv", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        runs = [(row["model"], row["seed"]) for row in reader]
    assert sorted(runs) == [(v, s) for v in ("baseline", "khop+ps-dgi") for s in ("0", "1")]
    with open(out / "compare_summary.csv", encoding="utf-8") as fh:
        summary = {row["model"]: row for row in csv.DictReader(fh)}
    assert set(summary) == {"baseline", "khop+ps-dgi"}
    assert summary["baseline"]["p_vs_baseline"] == ""
    assert 0.0 <= float(summary["khop+ps-dgi"]["p_vs_baseline"]) <= 1.0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["model"]["variant"] == ["baseline", "khop+ps-dgi"]
    assert "variants" not in manifest


def test_compare_matches_training_each_variant_alone(tmp_path):
    # Each variant trained on its own the way the all-variants script did
    # (hidden 64, batch 16, learning rate 3e-3, pool_ratio 0.25 only for
    # k-hop variants) must give compare's accuracies bit for bit.  The noisier
    # spec keeps accuracies apart across variants and seeds.
    spec = SyntheticSpec(feature_noise=2.0)
    seeds = (0, 1)
    config = RunConfig(
        model=ModelConfig(pool_ratio=0.25), synthetic=spec,
        adam=AdamConfig(learning_rate=3e-3), epochs=1, seeds=seeds,
    )
    bundle = load_bundle(config)
    compare(config, ["baseline", "khop+ps-dgi"], out_dir=tmp_path, bundle=bundle)
    with open(tmp_path / "compare_runs.csv", encoding="utf-8") as fh:
        got = {(row["model"], int(row["seed"])): float(row["accuracy"]) for row in csv.DictReader(fh)}
    for variant in ("baseline", "khop+ps-dgi"):
        extra = {"pool_ratio": 0.25} if "khop" in variant else {}
        alone = RunConfig(
            model=ModelConfig(variant=variant, hidden_dim=64, **extra),
            protocol=ObservationProtocol(n_obs=4),
            synthetic=spec,
            adam=AdamConfig(learning_rate=3e-3),
            epochs=1,
            batch_size=16,
            seeds=seeds,
        )
        assert [got[variant, seed] for seed in seeds] == train(alone, bundle=bundle).accuracies
    assert len(set(got.values())) > 1


class TestTrain:
    def test_smoke_lambda_zero_emits_all_seeds(self):
        config = small_config(epochs=1, seeds=(0, 1, 2, 3, 4), lambda_single=0.0)
        metrics = train(config)
        assert len(metrics.accuracies) == 5
        assert all(0.0 <= a <= 1.0 for a in metrics.accuracies)
        assert not any(s.diverged for s in metrics.per_seed)

    def test_positional_encoding_ranks_beyond_twenty(self):
        # Unordered records of 30-40 nodes rank their observed nodes by walk
        # position, so ranks run past 20 even though only about 4 are observed.
        config = RunConfig(
            model=ModelConfig(variant="khop+ps-dgi", hidden_dim=8, use_positional_encoding=True),
            protocol=ObservationProtocol(n_obs=4, ordered=False),
            synthetic=SyntheticSpec(
                num_nodes=200, num_subgraphs=20, subgraph_size_min=30,
                subgraph_size_max=40, seed=3,
            ),
            epochs=1,
            batch_size=8,
            seeds=(0,),
        )
        result, _ = train_single_seed(config, load_bundle(config), 0)
        assert not result.diverged and len(result.val_accuracy) == 1

    def test_same_seed_reproduces_loss_traces(self):
        config = small_config(epochs=2)
        bundle = load_bundle(config)
        a, _ = train_single_seed(config, bundle, 7)
        b, _ = train_single_seed(config, bundle, 7)
        assert a.loss_trace == b.loss_trace
        assert a.val_accuracy == b.val_accuracy
        assert a.test_accuracy == b.test_accuracy

    def test_gradient_accumulation_matches_larger_batch(self):
        # 2 micro-batches of 4 with accumulation behave like one batch of 8
        # for the very first optimizer step (same summed gradient).
        config_a = small_config(epochs=1)
        config_a.batch_size = 8
        config_b = small_config(epochs=1)
        config_b.batch_size = 4
        config_b.grad_accum = 2
        bundle = load_bundle(config_a)
        res_a, model_a = train_single_seed(config_a, bundle, 3)
        res_b, model_b = train_single_seed(config_b, bundle, 3)
        # Not bit-identical overall (observation sampling interleaves
        # differently), but both must run and emit finite traces.
        assert all(math.isfinite(v) for v in res_a.loss_trace["graph"])
        assert all(math.isfinite(v) for v in res_b.loss_trace["graph"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_seed_flagged_others_continue(self):
        # A learning rate beyond the float64 overflow point drives matmuls to
        # inf and the loss to NaN; the seed aborts with a flag and the run
        # proceeds to the remaining seeds.
        config = small_config(epochs=3, seeds=(0, 1))
        config.adam = AdamConfig(learning_rate=1e160)
        metrics = train(config)
        flagged = [s for s in metrics.per_seed if s.diverged]
        assert flagged and all(math.isnan(s.test_accuracy) for s in flagged)
        assert len(metrics.per_seed) == 2  # the loop reached every seed

    @pytest.mark.parametrize("grad_accum", [1, 2])
    def test_non_finite_gradient_flags_seed_before_adam(self, monkeypatch, caplog, grad_accum):
        # The objective stays finite and one gradient turns NaN: Adam must not
        # run on it, and the log names the parameter.
        import subgraph_infomax.autodiff as ad
        import subgraph_infomax.train as train_module

        models, adam_calls = [], []
        real_build, real_backward = train_module.build_model, ad.backward

        def build(*args, **kwargs):
            models.append(real_build(*args, **kwargs))
            return models[-1]

        def poisoned_backward(loss):
            real_backward(loss)
            dict(models[-1].store.items())["head.w"].grad[0, 0] = np.nan

        monkeypatch.setattr(train_module, "build_model", build)
        monkeypatch.setattr(ad, "backward", poisoned_backward)
        monkeypatch.setattr(train_module, "adam_step", lambda *args: adam_calls.append(args))
        config = small_config(epochs=2)
        config.grad_accum = grad_accum
        with caplog.at_level("ERROR", logger="subgraph_infomax.train"):
            result, _ = train_single_seed(config, load_bundle(config), 0)
        assert result.diverged and math.isnan(result.test_accuracy)
        assert adam_calls == []
        assert "non-finite gradient for head.w;" in caplog.text

    @pytest.mark.parametrize("ratios, stage", [((0.85, 0.15, 0.0), "test"), ((0.85, 0.0, 0.15), "val")])
    def test_an_empty_eval_split_is_refused_before_the_first_step(self, monkeypatch, ratios, stage):
        # An empty val or test split is an error before any training, not
        # after every epoch of it.
        import subgraph_infomax.train as train_module

        steps = []
        real_build = train_module.build_model

        def build(*args, **kwargs):
            model = real_build(*args, **kwargs)
            real_step = model.step
            model.step = lambda *a, **k: steps.append(1) or real_step(*a, **k)
            return model

        monkeypatch.setattr(train_module, "build_model", build)
        spec = dataclasses.replace(SMALL_SPEC, split_ratios=ratios)
        config = dataclasses.replace(small_config(epochs=2), synthetic=spec)
        with pytest.raises(ValueError, match=f"^the {stage} split is empty$"):
            train_single_seed(config, load_bundle(config), 0)
        assert steps == []

    def test_two_stage_ordered_with_positional_encoding(self):
        config = small_config(
            variant="khop+ps-dgi", epochs=1,
            pool_ratio=0.5, use_positional_encoding=True,
        )
        config.protocol = ObservationProtocol(n_obs=3, ordered=True)
        metrics = train(config)
        assert not any(s.diverged for s in metrics.per_seed)
        assert 0.0 <= metrics.accuracies[0] <= 1.0

    def test_metrics_mean_std_rederivable(self):
        per_seed = [
            SeedResult(seed=i, test_accuracy=a, best_epoch=0, val_accuracy=[], loss_trace={})
            for i, a in enumerate((0.5, 0.75, 1.0))
        ]
        metrics = MetricsRecord(per_seed=per_seed)
        assert abs(metrics.mean - float(np.mean([0.5, 0.75, 1.0]))) < 1e-12
        assert abs(metrics.std - float(np.std([0.5, 0.75, 1.0]))) < 1e-12


class TestRunConfig:
    def test_synthetic_spec_is_the_default_source(self):
        assert RunConfig().synthetic == SyntheticSpec()

    def test_files_leave_no_synthetic_spec(self):
        files = DatasetFiles("e.txt", "s.tsv", "x.txt")
        assert RunConfig(files=files).synthetic is None

    def test_both_sources_rejected(self):
        files = DatasetFiles("e.txt", "s.tsv", "x.txt")
        with pytest.raises(ValueError, match="^give one dataset source"):
            RunConfig(files=files, synthetic=SyntheticSpec())

    def test_repeated_seed_rejected(self):
        # A repeated seed would train twice, overwrite its checkpoint and
        # count twice in a t-test.
        with pytest.raises(ValueError, match="^seeds: 0 is repeated$"):
            RunConfig(seeds=(0, 1, 0))


class TestBatching:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_lone_trailing_record_joins_previous_batch(self, variant):
        config = small_config(variant=variant, epochs=1, pool_ratio=0.5)
        bundle = load_bundle(config)
        assert len(bundle.indices("train")) == 17  # batches of 8 leave one over
        result, _ = train_single_seed(config, bundle, 0)
        assert not result.diverged
        assert all(math.isfinite(v) for trace in result.loss_trace.values() for v in trace)

    @pytest.mark.parametrize("variant", ["ps-infograph", "ps-graphcl", "khop+ps-infograph"])
    def test_batch_size_one_rejected_for_in_batch_negatives(self, variant):
        with pytest.raises(ValueError, match="batch_size must be >= 2, got 1$"):
            dataclasses.replace(small_config(variant=variant, epochs=1), batch_size=1)
        # A config set to batch size 1 after it was built fails on its first batch.
        config = small_config(variant=variant, epochs=1)
        config.batch_size = 1
        with pytest.raises(ValueError, match="training needs a batch of at least 2 records"):
            train_single_seed(config, load_bundle(config), 0)

    def test_batch_slices(self):
        assert _batches(17, 8) == [slice(0, 8), slice(8, 17)]
        assert _batches(16, 8) == [slice(0, 8), slice(8, 16)]
        assert _batches(18, 8) == [slice(0, 8), slice(8, 16), slice(16, 18)]
        assert _batches(1, 8) == [slice(0, 1)]
        assert _batches(3, 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_train_submodule_is_not_shadowed():
    import subgraph_infomax.train as T

    assert inspect.ismodule(T)


class _StubModel:
    """Deterministic pseudo-random logits from a generator seeded by each
    record's node ids; ``evaluate`` hands a step no rng."""

    def __init__(self, num_classes):
        self.num_classes = num_classes
        self.config = ModelConfig(variant="baseline")

    def logits(self, record):
        return np.random.default_rng(record.node_ids).normal(size=self.num_classes)

    def step(self, records, views, rng=None, training=False, partitions=None):
        from subgraph_infomax.models import StepOutput

        assert rng is None and not training
        return StepOutput(logits=np.stack([self.logits(record) for record in records]))


class TestEvaluate:
    def test_all_correct_scores_one(self):
        config = small_config(epochs=1)
        bundle = load_bundle(config)

        class Oracle(_StubModel):
            def __init__(self, bundle):
                super().__init__(bundle.num_classes)
                self.bundle = bundle

            def logits(self, record):
                logits = np.zeros(self.num_classes)
                logits[record.label] = 1.0
                return logits

        assert evaluate(Oracle(bundle), bundle, config.protocol, "test") == 1.0

    def test_random_logits_near_chance(self):
        spec = SyntheticSpec(
            num_nodes=200, num_subgraphs=1000, subgraph_size_min=6,
            subgraph_size_max=8, split_ratios=(0.0, 0.0, 1.0), seed=21,
        )
        bundle = load_bundle(RunConfig(synthetic=spec, epochs=1))
        protocol = ObservationProtocol(n_obs=3)
        accuracy = evaluate(_StubModel(bundle.num_classes), bundle, protocol, "test")
        assert abs(accuracy - 0.5) < 0.05

    def test_repeated_evaluation_identical(self):
        config = small_config(epochs=1)
        bundle = load_bundle(config)
        _, model = train_single_seed(config, bundle, 0)
        a = evaluate(model, bundle, config.protocol, "val")
        b = evaluate(model, bundle, config.protocol, "val")
        assert a == b

    def test_empty_stage_rejected(self):
        spec = SyntheticSpec(
            num_nodes=80, num_subgraphs=10, split_ratios=(1.0, 0.0, 0.0), seed=3,
        )
        bundle = load_bundle(RunConfig(synthetic=spec, epochs=1))
        config = small_config(epochs=1)
        _, model = None, None
        from subgraph_infomax.models import build_model

        model = build_model(config.model, bundle, np.random.default_rng(0))
        with pytest.raises(ValueError):
            evaluate(model, bundle, config.protocol, "test")


class TestTTest:
    def test_identical_samples_give_one(self):
        assert unpaired_t_test([0.5, 0.5, 0.5], [0.5, 0.5, 0.5]) == 1.0

    def test_separated_samples_significant(self):
        a = [0.001, 0.0, -0.001]
        b = [1.001, 1.0, 0.999]
        assert unpaired_t_test(a, b) < 0.001

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            unpaired_t_test([0.5], [0.5, 0.6])

    def test_zero_variance_unequal_means(self):
        assert unpaired_t_test([0.2, 0.2], [0.4, 0.4]) == 0.0

    def test_one_zero_variance_side_warns_nothing_and_keeps_the_p_value(self):
        import scipy.stats

        a, b = [1.0, 1.0], [0.75, 0.5]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = scipy.stats.ttest_ind(a, b, equal_var=False).pvalue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert unpaired_t_test(a, b) == want

    def test_against_incomplete_beta_oracle(self):
        # Independent recomputation: t and the Welch-Satterthwaite df by hand,
        # then p = I_{df/(df+t^2)}(df/2, 1/2) via 50-digit incomplete beta.
        import mpmath

        a = [0.80, 0.82, 0.84]
        b = [0.70, 0.72, 0.74]
        va = np.var(a, ddof=1) / len(a)
        vb = np.var(b, ddof=1) / len(b)
        t = (np.mean(a) - np.mean(b)) / math.sqrt(va + vb)
        df = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
        with mpmath.workdps(50):
            x = mpmath.mpf(df) / (df + t * t)
            oracle = float(mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))
        got = unpaired_t_test(a, b)
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got < 0.01  # t = 6.12 on 4 dof is beyond the 99.5% table point


class TestSweeps:
    def test_observed_sweep_grid_shape(self, tmp_path):
        config = small_config(epochs=1)
        summary = sweep_observed(config, [2, 3], out_dir=tmp_path)
        assert len(summary) == 4  # 2x2 grid, one summary row per cell
        cells = {(row["n_obs_train"], row["n_obs_test"]) for row in summary}
        assert cells == {(2, 2), (2, 3), (3, 2), (3, 3)}
        with open(tmp_path / "observed_sweep_runs.csv", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == CSV_COLUMNS
            rows = list(reader)
        assert len(rows) == 4 * len(config.seeds)

    def test_observed_sweep_deterministic(self, tmp_path):
        config = small_config(epochs=1)
        a = sweep_observed(config, [2, 3])
        b = sweep_observed(config, [2, 3])
        assert a == b

    def test_lambda_sweep_rows(self, tmp_path):
        config = small_config(variant="khop+ps-dgi", epochs=1, pool_ratio=0.5)
        summary = sweep_lambda(config, [1.0, 2.0], [1.0], out_dir=tmp_path)
        assert len(summary) == 2
        with open(tmp_path / "lambda_sweep_runs.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["lambda_khop"] for row in rows} == {"1.0", "2.0"}

    def test_single_point_grid(self):
        config = small_config(variant="khop+ps-dgi", epochs=1, pool_ratio=0.5)
        summary = sweep_lambda(config, [1.5], [2.5])
        assert len(summary) == 1
        assert summary[0]["lambda_khop"] == 1.5
        assert summary[0]["lambda_second"] == 2.5

    @pytest.mark.parametrize(
        "sweep, message",
        [
            (lambda c, out: sweep_observed(c, [3, 2, 3], out_dir=out), "^sizes: 3 is repeated$"),
            (
                lambda c, out: sweep_lambda(c, [1, 1.0], [2], out_dir=out),
                r"^lambda_khop_grid: 1\.0 is repeated$",
            ),
            (
                lambda c, out: sweep_lambda(c, [1], [2, 0.5, 2], out_dir=out),
                "^lambda_second_grid: 2 is repeated$",
            ),
        ],
        ids=["sizes", "grid-khop", "grid-second"],
    )
    def test_repeated_grid_value_rejected_before_training(self, tmp_path, sweep, message):
        with pytest.raises(ValueError, match=message):
            sweep(small_config(), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "variant, khop_grid, second_grid, message",
        [
            ("ps-dgi", [1.0], [1.0, 3.0],
             r"^lambda_second_grid \[1\.0, 3\.0\]: variant 'ps-dgi' does not read lambda_second "
             r"\(a two-stage variant does\)"),
            ("khop", [1.0, 3.0], [1.0, 3.0],
             r"^lambda_second_grid \[1\.0, 3\.0\]: variant 'khop' does not read lambda_second"),
        ],
        ids=["ps-dgi", "khop"],
    )
    def test_grid_over_an_unread_lambda_rejected_before_training(
        self, tmp_path, monkeypatch, variant, khop_grid, second_grid, message
    ):
        import subgraph_infomax.train as train_module

        monkeypatch.setattr(train_module, "train_single_seed", None)  # no cell may train
        config = small_config(variant=variant, pool_ratio=0.5)
        with pytest.raises(ValueError, match=message):
            sweep_lambda(config, khop_grid, second_grid, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_summary_tests_each_model_against_baseline(self):
        accuracies = {"baseline": [0.5, 0.6, 0.7], "ps-dgi": [0.8, 0.9, 0.85], "khop": [0.6, 0.6, 0.7]}
        rows = [
            {"dataset": "d", "model": model, "accuracy": accuracy}
            for model, accs in accuracies.items() for accuracy in accs
        ]
        summary = {entry["model"]: entry for entry in _summarize(rows, (), "baseline")}
        assert summary["baseline"]["p_vs_baseline"] == ""
        for model in ("ps-dgi", "khop"):
            expected = unpaired_t_test(accuracies[model], accuracies["baseline"])
            assert summary[model]["p_vs_baseline"] == expected
        without = _summarize(rows[3:], (), "baseline")
        assert [entry["p_vs_baseline"] for entry in without] == ["", ""]
        assert "p_vs_baseline" not in _summarize(rows, ())[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_lambda(small_config(), [], [1.0])
        with pytest.raises(ValueError):
            sweep_observed(small_config(), [])

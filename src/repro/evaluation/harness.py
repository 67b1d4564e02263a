"""Table/figure runners: one function per experiment in the paper's §VII.

Every function returns plain dictionaries (method -> metrics) so benchmarks
can both print the table and assert on its *shape* (who wins, orderings)
without depending on absolute values.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..datasets.splits import grouped_train_test_split, train_test_split
from ..downstream.metrics import (
    accuracy,
    grouped_rank_correlation,
    hit_rate,
    mae,
    mape,
    mare,
)
from ..downstream.tasks import (
    ensure_service,
    evaluate_ranking,
    evaluate_recommendation,
    evaluate_travel_time,
)
from .experiment import (
    EDGE_SUM_BASELINES,
    SUPERVISED_BASELINES,
    UNSUPERVISED_BASELINES,
    build_dataset,
    build_supervised_baseline,
    fit_unsupervised_baseline,
    fit_wsccl,
)

__all__ = [
    "representation_task_results",
    "supervised_travel_time_results",
    "supervised_ranking_results",
    "run_table2_dataset_statistics",
    "run_table3_overall",
    "run_table4_recommendation",
    "run_table5_curriculum_design",
    "run_table6_ablation",
    "run_table7_weak_labels",
    "run_table8_temporal",
    "run_table9_pim_temporal",
    "run_table10_supervised_transfer",
    "run_table11_lambda",
    "run_table12_metasets",
    "run_fig7_pretraining",
]


# ----------------------------------------------------------------------
# Shared evaluation helpers
# ----------------------------------------------------------------------
def representation_task_results(model, city, config, tasks=("travel_time", "ranking")):
    """GBR/GBC evaluation of a frozen representation model on selected tasks.

    Embeddings are obtained through one shared
    :class:`~repro.serving.PathEmbeddingService` per model, so paths that
    recur across the selected tasks hit the embedding cache instead of being
    re-encoded.
    """
    model = ensure_service(model)
    results = {}
    if "travel_time" in tasks:
        results["travel_time"] = evaluate_travel_time(
            model, city.tasks.travel_time, test_fraction=config.test_fraction,
            seed=config.seed, n_estimators=config.n_estimators).as_row()
    if "ranking" in tasks:
        results["ranking"] = evaluate_ranking(
            model, city.tasks.ranking, test_fraction=config.test_fraction,
            seed=config.seed, n_estimators=config.n_estimators).as_row()
    if "recommendation" in tasks:
        results["recommendation"] = evaluate_recommendation(
            model, city.tasks.recommendation, test_fraction=config.test_fraction,
            seed=config.seed, n_estimators=config.n_estimators).as_row()
    return results


def supervised_travel_time_results(model, city, config, train_limit=None):
    """Train a supervised baseline on travel-time labels and score the test split."""
    train, test = train_test_split(
        city.tasks.travel_time, test_fraction=config.test_fraction, seed=config.seed)
    if train_limit is not None:
        train = train[:train_limit]
    model.fit_supervised(train, "travel_time", city=city, max_batches=config.max_batches)
    truth = np.array([e.travel_time for e in test])
    predictions = model.predict([e.temporal_path for e in test])
    return {"MAE": mae(truth, predictions), "MARE": mare(truth, predictions),
            "MAPE": mape(truth, predictions)}


def supervised_ranking_results(model, city, config, train_limit=None):
    """Train a supervised baseline on ranking labels and score the test split."""
    groups = [e.group for e in city.tasks.ranking]
    train, test = grouped_train_test_split(
        city.tasks.ranking, groups, test_fraction=config.test_fraction, seed=config.seed)
    if train_limit is not None:
        train = train[:train_limit]
    model.fit_supervised(train, "ranking", city=city, max_batches=config.max_batches)
    truth = np.array([e.score for e in test])
    predictions = model.predict([e.temporal_path for e in test])
    test_groups = np.array([e.group for e in test])
    return {
        "MAE": mae(truth, predictions),
        "tau": grouped_rank_correlation(truth, predictions, test_groups, "kendall"),
        "rho": grouped_rank_correlation(truth, predictions, test_groups, "spearman"),
    }


# ----------------------------------------------------------------------
# Table II — dataset statistics
# ----------------------------------------------------------------------
def run_table2_dataset_statistics(config, cities=("aalborg", "harbin", "chengdu")):
    """Regenerate the dataset statistics table."""
    rows = {}
    for name in cities:
        city = build_dataset(name, config)
        rows[name] = city.statistics()
    return rows


# ----------------------------------------------------------------------
# Table III — overall accuracy (travel time + ranking)
# ----------------------------------------------------------------------
def run_table3_overall(config, cities=("aalborg",), methods=None,
                       include_supervised=True, include_edge_sum=True):
    """Travel-time and ranking results for WSCCL and the baselines."""
    methods = methods or UNSUPERVISED_BASELINES
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        city_rows = {}

        for name in methods:
            model = fit_unsupervised_baseline(name, city, config)
            city_rows[name] = representation_task_results(model, city, config)

        if include_supervised:
            for name in SUPERVISED_BASELINES:
                tt_model = build_supervised_baseline(name, config)
                ranking_model = build_supervised_baseline(name, config)
                city_rows[name] = {
                    "travel_time": supervised_travel_time_results(tt_model, city, config),
                    "ranking": supervised_ranking_results(ranking_model, city, config),
                }
        if include_edge_sum:
            for name in EDGE_SUM_BASELINES:
                model = build_supervised_baseline(name, config)
                city_rows[name] = {
                    "travel_time": supervised_travel_time_results(model, city, config),
                }

        wsccl = fit_wsccl(city, config, variant="full")
        city_rows["WSCCL"] = representation_task_results(wsccl, city, config)
        results[city_name] = city_rows
    return results


# ----------------------------------------------------------------------
# Table IV — path recommendation
# ----------------------------------------------------------------------
def run_table4_recommendation(config, cities=("aalborg",), methods=None):
    """Path recommendation accuracy / hit rate for WSCCL and baselines."""
    methods = methods or UNSUPERVISED_BASELINES
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        city_rows = {}
        for name in methods:
            model = fit_unsupervised_baseline(name, city, config)
            city_rows[name] = representation_task_results(
                model, city, config, tasks=("recommendation",))["recommendation"]
        wsccl = fit_wsccl(city, config, variant="full")
        city_rows["WSCCL"] = representation_task_results(
            wsccl, city, config, tasks=("recommendation",))["recommendation"]
        results[city_name] = city_rows
    return results


# ----------------------------------------------------------------------
# Table V — learned vs heuristic curriculum
# ----------------------------------------------------------------------
def run_table5_curriculum_design(config, city_name="aalborg"):
    """Learned curriculum (WSCCL) vs the length-sorted heuristic curriculum."""
    city = build_dataset(city_name, config)
    rows = {}
    for label, variant in (("Heuristic", "heuristic"), ("WSCCL", "full")):
        model = fit_wsccl(city, config, variant=variant)
        rows[label] = representation_task_results(model, city, config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Table VI — ablation of CL, global and local losses
# ----------------------------------------------------------------------
def run_table6_ablation(config, city_name="aalborg"):
    """WSCCL vs w/o CL, w/o Global, w/o Local."""
    city = build_dataset(city_name, config)
    rows = {}
    variants = (
        ("w/o CL", "no_cl"),
        ("w/o Global", "no_global"),
        ("w/o Local", "no_local"),
        ("WSCCL", "full"),
    )
    for label, variant in variants:
        model = fit_wsccl(city, config, variant=variant)
        rows[label] = representation_task_results(model, city, config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Table VII — POP vs TCI weak labels
# ----------------------------------------------------------------------
def run_table7_weak_labels(config, cities=("harbin",)):
    """WSCCL trained with POP vs TCI weak labels."""
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        rows = {}
        for label, weak in (("WSCCL-TCI", "tci"), ("WSCCL-POP", "pop")):
            model = fit_wsccl(city, config, variant="full", weak_labels=weak)
            rows[label] = representation_task_results(model, city, config)
        results[city_name] = rows
    return results


# ----------------------------------------------------------------------
# Table VIII — effect of temporal information
# ----------------------------------------------------------------------
def run_table8_temporal(config, cities=("aalborg",)):
    """WSCCL vs WSCCL-NT (temporal embedding removed)."""
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        rows = {}
        for label, variant in (("WSCCL", "full"), ("WSCCL-NT", "no_temporal")):
            model = fit_wsccl(city, config, variant=variant)
            rows[label] = representation_task_results(model, city, config)
        results[city_name] = rows
    return results


# ----------------------------------------------------------------------
# Table IX — WSCCL vs PIM-Temporal
# ----------------------------------------------------------------------
def run_table9_pim_temporal(config, cities=("aalborg",)):
    """WSCCL vs PIM with a concatenated temporal embedding."""
    results = {}
    for city_name in cities:
        city = build_dataset(city_name, config)
        rows = {}
        pim_temporal = fit_unsupervised_baseline("PIM-Temporal", city, config)
        rows["PIM-Temporal"] = representation_task_results(pim_temporal, city, config)
        wsccl = fit_wsccl(city, config, variant="full")
        rows["WSCCL"] = representation_task_results(wsccl, city, config)
        results[city_name] = rows
    return results


# ----------------------------------------------------------------------
# Table X — cross-task transfer of supervised baselines
# ----------------------------------------------------------------------
def run_table10_supervised_transfer(config, city_name="aalborg",
                                    methods=SUPERVISED_BASELINES):
    """Primary-task vs secondary-task performance of supervised methods.

    ``<Method>-PR`` is trained on travel time (primary) and transferred to
    ranking; ``<Method>-TTE`` is trained on ranking (primary) and transferred
    to travel time — matching the paper's naming where the suffix denotes the
    *secondary* task the representation is transferred to.
    """
    city = build_dataset(city_name, config)
    rows = {}
    for name in methods:
        # Primary = travel time.  Secondary = ranking via frozen representations.
        tt_model = build_supervised_baseline(name, config)
        tt_primary = supervised_travel_time_results(tt_model, city, config)
        ranking_secondary = representation_task_results(
            tt_model, city, config, tasks=("ranking",))["ranking"]
        rows[f"{name}-PR"] = {"travel_time": tt_primary, "ranking": ranking_secondary}

        # Primary = ranking.  Secondary = travel time via frozen representations.
        rank_model = build_supervised_baseline(name, config)
        rank_primary = supervised_ranking_results(rank_model, city, config)
        tt_secondary = representation_task_results(
            rank_model, city, config, tasks=("travel_time",))["travel_time"]
        rows[f"{name}-TTE"] = {"travel_time": tt_secondary, "ranking": rank_primary}

    wsccl = fit_wsccl(city, config, variant="full")
    rows["WSCCL"] = representation_task_results(wsccl, city, config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Table XI — effect of λ
# ----------------------------------------------------------------------
def run_table11_lambda(config, city_name="aalborg",
                       lambdas=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0)):
    """Sweep the global/local balance λ."""
    city = build_dataset(city_name, config)
    rows = {}
    for value in lambdas:
        lambda_config = dataclasses.replace(
            config, wsccl=config.wsccl.with_overrides(lambda_balance=float(value)))
        model = fit_wsccl(city, lambda_config, variant="no_cl")
        rows[float(value)] = representation_task_results(model, city, lambda_config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Table XII — effect of the number of meta-sets N
# ----------------------------------------------------------------------
def run_table12_metasets(config, city_name="aalborg", meta_set_counts=(2, 4, 6)):
    """Sweep the number of meta-sets / curriculum stages (N = M)."""
    city = build_dataset(city_name, config)
    rows = {}
    for count in meta_set_counts:
        sweep_config = dataclasses.replace(
            config,
            wsccl=config.wsccl.with_overrides(
                num_meta_sets=int(count), num_stages=int(count)),
        )
        model = fit_wsccl(city, sweep_config, variant="full")
        rows[int(count)] = representation_task_results(model, city, sweep_config)
    return {city_name: rows}


# ----------------------------------------------------------------------
# Fig. 7 — WSCCL as a pre-training method for PathRank
# ----------------------------------------------------------------------
def run_fig7_pretraining(config, city_name="aalborg",
                         label_fractions=(0.4, 0.7, 1.0)):
    """PathRank with and without WSCCL pre-training vs number of labels.

    Returns, per label fraction, the travel-time MAE and ranking τ of
    PathRank trained from scratch and PathRank whose encoder is initialised
    from a trained WSCCL model.
    """
    city = build_dataset(city_name, config)
    wsccl = fit_wsccl(city, config, variant="full")
    pretrained_state = wsccl.encoder_state_dict()

    train_tt, _ = train_test_split(
        city.tasks.travel_time, test_fraction=config.test_fraction, seed=config.seed)
    groups = [e.group for e in city.tasks.ranking]
    train_rank, _ = grouped_train_test_split(
        city.tasks.ranking, groups, test_fraction=config.test_fraction, seed=config.seed)

    series = {"scratch": {}, "pretrained": {}}
    for fraction in label_fractions:
        tt_limit = max(4, int(round(len(train_tt) * fraction)))
        rank_limit = max(4, int(round(len(train_rank) * fraction)))

        for mode in ("scratch", "pretrained"):
            state = pretrained_state if mode == "pretrained" else None
            tt_model = build_supervised_baseline("PathRank", config, pretrained_state=state)
            tt_metrics = supervised_travel_time_results(
                tt_model, city, config, train_limit=tt_limit)
            rank_model = build_supervised_baseline("PathRank", config, pretrained_state=state)
            rank_metrics = supervised_ranking_results(
                rank_model, city, config, train_limit=rank_limit)
            series[mode][float(fraction)] = {
                "travel_time": tt_metrics,
                "ranking": rank_metrics,
            }
    return {city_name: series}

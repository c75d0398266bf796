"""The package's public surface: one list of names per module, re-exported in order."""

import dataclasses
import importlib
import inspect

import sdrmatch

MODULES = ("dataset", "matching", "numerics", "propensity", "sdr", "simulation")


def module(name):
    return importlib.import_module(f"sdrmatch.{name}")


def test_package_all_is_the_module_lists_in_order():
    expected = ["__version__", "errors"]
    for name in MODULES:
        expected += module(name).__all__
    assert sdrmatch.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_listed_name_is_its_module_object():
    for name in MODULES:
        for attr in module(name).__all__:
            assert getattr(sdrmatch, attr) is getattr(module(name), attr), attr
    assert sdrmatch.errors is module("errors")
    namespace = {}
    exec("from sdrmatch import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(sdrmatch.__all__)


def test_surface_only_tests_used_is_gone():
    assert not hasattr(module("numerics"), "sample_bernoulli")
    assert not hasattr(sdrmatch, "sample_bernoulli")
    assert not hasattr(sdrmatch.BalancingScore, "propensity")
    assert not hasattr(sdrmatch.BalancingScore, "reduced")
    assert list(inspect.signature(sdrmatch.build_metric).parameters) == ["scores"]
    assert list(inspect.signature(sdrmatch.fit_logistic).parameters) == [
        "covariates", "treatment"]


def test_copied_and_derivable_state_is_gone():
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert not hasattr(sdrmatch, "write_csv")
    assert not hasattr(module("numerics"), "default_ridge")
    assert fields(sdrmatch.ObservationalSample) == ["covariates", "treatment", "outcome"]
    assert fields(sdrmatch.GeneratedData) == ["sample", "true_ps", "spec"]
    assert fields(sdrmatch.MethodResult) == ["bias", "sd", "rmse", "failures"]
    assert fields(sdrmatch.SlicedMoments) == ["slice_means", "slice_sizes"]
    assert not hasattr(sdrmatch.errors.SliceError("x"), "effective_slices")
    assert not hasattr(sdrmatch.Case3Config, "terms")
    assert not hasattr(module("simulation"), "case3_latent_correlation")


def test_matching_owns_the_method_and_estimand_vocabulary():
    from sdrmatch import cli

    assert sdrmatch.ESTIMANDS == ("ace", "acet")
    assert list(sdrmatch.METHODS) == ["ambient", "ps-logistic", "ps-true", "sdr",
                                      "sdr-oracle", "active-set-oracle"]
    assert [m for m, (_, truth) in sdrmatch.METHODS.items() if truth] == [
        "ps-true", "sdr-oracle", "active-set-oracle"]
    assert sdrmatch.scenario("case1-I").methods == tuple(sdrmatch.METHODS)
    assert not hasattr(module("simulation"), "ALL_METHODS")
    assert not hasattr(cli, "_ESTIMATE_METHODS")
    assert not hasattr(cli, "_METHOD_LABELS")

"""The package facade: ``bayescomplex.__all__`` lists the functions and
types the CLI, the demos and the benchmark use, and nothing else."""

import types

import bayescomplex


def test_every_exported_name_resolves_to_a_non_module():
    for name in bayescomplex.__all__:
        value = getattr(bayescomplex, name)
        assert not isinstance(value, types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from bayescomplex import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(bayescomplex.__all__)

"""Every definition in ``src/bayescomplex`` is reached from an entry point.

The entry points are the CLI (its console script and ``cli.COMMANDS``), the
demos, and the functions ``perfbench/tracing.py`` times. Reachability is by
name, read with ``ast``: a reached definition reaches every definition whose
name appears in its body, as a bare name or as an attribute. Reaching a class
reaches its class body and its dunder methods; other methods are reached by
their attribute name. Name matching over-approximates the call graph, so a
definition this test calls unreached has no caller anywhere outside tests.

A definition kept on purpose without a caller goes on ALLOWED with the reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bayescomplex"

#: Definitions no entry point reaches, each kept for the reason given.
ALLOWED = {
    "complexity.exponential_complexity_mc":
        "naive reference for the exponential complexity in the tests",
    "complexity.empirical_complexity_mc":
        "naive reference for the dataset-conditional complexity in the tests",
    "complexity._logmean_estimate":
        "log-mean helper of the two naive references above",
    "complexity.sharp_with_noise":
        "the paper's noise-shifted radius, checked against chi_from_q",
    "complexity.dist_to_representation_set":
        "scalar form of the codim oracle, checked by the tests",
    "posterior.divergence_upper_bound":
        "the paper's KL bound through chi^E, kept for network PAC-Bayes",
    "projection.project_to_zero_with_bias":
        "the paper's projection with an output bias, checked by criterion 06",
    "pwl.l2_distance_sq":
        "L2 distance between two PWL functions, a test reference",
    "pwl._check_shared_domain":
        "domain check of l2_distance_sq",
    "models.ShallowNetParams.from_flat":
        "inverse of flat(), used by the tests to read parameter vectors",
    "posterior.GaussianPosterior.sample":
        "posterior draws for the Monte Carlo loss references in the tests",
    "families.LinearFamily.predict_batch":
        "predictions of posterior draws for the Monte Carlo loss references",
    "families.ShallowNetFamily.predict_batch":
        "network predictions, kept for network PAC-Bayes (no test calls it)",
}


def _names(nodes) -> set[str]:
    """Bare names and attribute names used anywhere inside nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _package() -> tuple[dict[str, str], dict[str, set[str]]]:
    """(defs, uses). defs is {module.qualname: name} for each top-level
    function, class and class method. uses is {name: names used in the
    bodies of that name's definitions}; a class's body and its dunder
    methods count as the class's, and a module-level assignment counts as a
    definition of its target, so that an alias (or a table such as
    cli.COMMANDS) passes reach on."""
    defs, uses = {}, {}

    def add(name, nodes, key=None):
        if key is not None:
            defs[key] = name
        uses.setdefault(name, set()).update(_names(nodes))

    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                add(node.name, [node], f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                body = []
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        add(item.name, [item], f"{module}.{node.name}.{item.name}")
                    else:
                        body.append(item)
                add(node.name, node.bases + body, f"{module}.{node.name}")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        add(target.id, [node.value])
    return defs, uses


def _roots() -> set[str]:
    """Names the entry points use."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    roots = set(re.findall(r'"bayescomplex\.cli:(\w+)"', pyproject))
    assert roots, "no console script found in pyproject.toml"
    roots.add("COMMANDS")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(demo.read_text())
        roots |= _names([tree])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                roots |= {alias.name for alias in node.names}
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tracing.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            for entry in node.value.elts:
                roots |= set(entry.elts[1].value.split("."))
    return roots


def _unreached() -> set[str]:
    defs, uses = _package()
    reached, frontier = set(), list(_roots())
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(uses.get(name, ()))
    return {key for key, name in defs.items() if name not in reached}


def test_every_definition_is_reached_or_allowed():
    unreached = _unreached()
    assert sorted(unreached - set(ALLOWED)) == [], "unreached, and not on ALLOWED"


def test_allowlist_names_only_unreached_definitions():
    """An allowed entry that an entry point now reaches, or that no longer
    exists, is stale."""
    assert sorted(set(ALLOWED) - _unreached()) == []

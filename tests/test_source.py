"""Static checks over the package source."""

import ast
import collections
import dataclasses
import sys
from pathlib import Path

from fedsim.core import RunConfig
from fedsim.harness import OBJECTIVES

SRC = Path(__file__).resolve().parents[1] / "src" / "fedsim"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def module_imports(tree: ast.Module) -> list[ast.Import | ast.ImportFrom]:
    """The import statements that run when the module is imported."""
    return [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]


def exported_names(tree: ast.Module) -> set[str]:
    """The names a module's `__all__` lists."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def unused_imports(path: Path) -> list[str]:
    """Module-level imports of `path` whose bound name is never read.

    Names listed in `__all__` count as read, since re-exporting is the
    point of importing them.
    """
    tree = parse(path)
    imported = {}
    for node in module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_package_has_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, f"unused module-level imports: {unused}"


def name_references(node: ast.AST) -> collections.Counter:
    """How often each name is read under `node`, as a bare name or as an
    attribute such as `harness.make_blobs`."""
    counts = collections.Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
    return counts


def unreferenced_definitions(paths: list[Path]) -> list[str]:
    """Module-level functions and classes in `paths` that no module in
    `paths` names outside their own definition, and that no `__all__`
    lists: code that only a test, or nothing, calls."""
    trees = {path: parse(path) for path in paths}
    everywhere = sum((name_references(tree) for tree in trees.values()), collections.Counter())
    exported = set().union(*map(exported_names, trees.values()))
    return [f"{path.name}:{node.lineno} {node.name}" for path, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exported
            and everywhere[node.name] == name_references(node)[node.name]]


def test_every_definition_is_used_by_the_package(tmp_path):
    """A helper that only the tests call belongs in `tests/checks.py`."""
    sample = tmp_path / "sample.py"
    sample.write_text("__all__ = ['Exported']\nclass Exported: pass\ndef used(): pass\n"
                      "def orphan(): return orphan()\nx = used()\n")
    assert unreferenced_definitions([sample]) == ["sample.py:4 orphan"]
    modules = sorted(SRC.glob("*.py"))
    found = unreferenced_definitions(modules)
    assert not found, f"definitions nothing in src/fedsim uses: {found}"


ALLOWED_PACKAGES = sys.stdlib_module_names | {"numpy", "fedsim"}


def foreign_imports(path: Path) -> list[str]:
    """Imports anywhere in `path`, function bodies included, of a package
    other than the standard library, numpy and fedsim itself."""
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom):
            names = [] if node.level else [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] not in ALLOWED_PACKAGES]
    return found


def test_package_imports_only_the_standard_library_numpy_and_itself():
    """numpy is fedsim's one dependency: the inverse normal CDF is ported
    into `core`, so no run pays for importing scipy.special."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [entry for path in modules for entry in foreign_imports(path)]
    assert not found, f"imports outside the standard library and numpy: {found}"


def numpy_random_calls(path: Path) -> list[str]:
    """Calls in `path` to anything reached through `numpy.random`, such as
    `np.random.Philox(...)` or `np.random.Generator(...)`, and imports from it."""
    tree = parse(path)
    numpy_names = {alias.asname or alias.name for node in module_imports(tree)
                   if isinstance(node, ast.Import) for alias in node.names if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            if any(name.startswith("numpy.random") for name in names):
                found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.Call):
            func = node.func
            while isinstance(func, ast.Attribute) and func.attr != "random":
                func = func.value
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in numpy_names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_core_constructs_bit_generators():
    """Every random value is addressed by (seed, purpose, client, round,
    step): streams come from `core.rng_stream` and `core.stream_uniforms`,
    so no other module builds a numpy Philox or Generator, or reaches the
    global numpy.random state."""
    modules = sorted(SRC.glob("*.py"))
    assert "core.py" in {path.name for path in modules}
    assert numpy_random_calls(SRC / "core.py"), "the check no longer sees core's own streams"
    found = [entry for path in modules if path.name != "core.py" for entry in numpy_random_calls(path)]
    assert not found, f"numpy.random used outside core.py: {found}"


STREAM_CONSTRUCTORS = {"rng_stream", "stream_uniforms"}


def stream_constructor_uses(path: Path) -> list[str]:
    """Imports of a stream constructor in `path`, at any level, and any
    other reference to one by name or attribute, such as `core.rng_stream`."""
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Name):
            names = {node.id}
        else:
            continue
        if names & STREAM_CONSTRUCTORS:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_oracles_read_only_the_uniforms_they_are_handed():
    """A stochastic gradient oracle gets its step's mapped noise by
    position; one that opened a stream of its own would draw noise no
    (seed, purpose, client, round, step) address accounts for."""
    assert stream_constructor_uses(SRC / "algorithms.py"), "the check no longer sees the run loop's streams"
    found = stream_constructor_uses(SRC / "objectives.py")
    assert not found, f"objectives.py reaches a stream constructor: {found}"


NAME_LISTS = ("ALGORITHMS", "PATTERNS", "OBJECTIVES")


def module_assignments(path: Path) -> set[str]:
    """Names bound by an assignment statement at the top level of `path`."""
    names = set()
    for node in parse(path).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def test_each_name_list_is_assigned_in_one_module():
    """A name list lives with the table it names, so a copy elsewhere
    cannot drift from it; other modules import it from there."""
    modules = sorted(SRC.glob("*.py"))
    homes = {name: [path.name for path in modules if name in module_assignments(path)]
             for name in NAME_LISTS}
    assert all(len(found) == 1 for found in homes.values()), f"modules assigning each list: {homes}"


def package_import_graph() -> dict[str, set[str]]:
    """The fedsim modules each module imports, at any level, function
    bodies included."""
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {}
    for name in modules:
        targets = set()
        for node in ast.walk(parse(SRC / f"{name}.py")):
            if isinstance(node, ast.ImportFrom) and node.level:
                parts = [node.module] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fedsim"):
                parts = node.module.split(".")[1:2] or [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fedsim.")]
            else:
                continue
            targets |= {part.split(".")[0] for part in parts} & modules
        graph[name] = targets - {name}
    return graph


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of `graph` as a closed path of modules, or [] if it has none."""
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> list[str]:
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return []
        for target in sorted(graph[name]):
            cycle = visit(target, path + [name])
            if cycle:
                return cycle
        done.add(name)
        return []

    for name in sorted(graph):
        cycle = visit(name, [])
        if cycle:
            return cycle
    return []


def test_package_imports_form_no_cycle():
    """Each module depends only on the ones below it, so none reaches back
    into a module that imports it, not even from inside a function."""
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) == []
    graph = package_import_graph()
    assert "core" in graph["harness"], "the check no longer sees the imports"
    cycle = import_cycle(graph)
    assert not cycle, f"import cycle: {' -> '.join(cycle)}"


def private_imports(path: Path) -> list[str]:
    """Names with a leading underscore that `path` imports, at any level,
    from another fedsim module."""
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fedsim")):
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_another_modules_private_names(tmp_path):
    """A name with a leading underscore belongs to its module; one that
    another module needs is part of its owner's interface and is named so."""
    sample = tmp_path / "sample.py"
    sample.write_text("from .data import _x\nfrom fedsim.core import _y, z\n"
                      "from numpy import _z\nfrom . import __version__\n")
    assert private_imports(sample) == ["sample.py:1 _x", "sample.py:2 _y"]
    modules = sorted(SRC.glob("*.py"))
    found = [entry for path in modules for entry in private_imports(path)]
    assert not found, f"imports of another module's private names: {found}"


def callers(name: str, paths: list[Path]) -> list[str]:
    """`module.definition` for each top-level function or class in `paths`
    that calls `name`, by name or as an attribute; `module.<module>` for a
    call outside any definition."""
    found = []
    for path in paths:
        for node in parse(path).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and name in (getattr(call.func, "id", None),
                                                           getattr(call.func, "attr", None)):
                    found.append(f"{path.stem}.{owner}")
                    break
    return found


def test_a_config_is_validated_in_build_run_alone(tmp_path):
    """`harness.build_run` is the one construction path of a run, so it is
    the one place that checks a config; a second check would run twice."""
    sample = tmp_path / "sample.py"
    sample.write_text("def a(): core.f(1)\ndef b(): pass\nclass C:\n    def m(self): f(2)\nf(3)\n")
    assert callers("f", [sample]) == ["sample.a", "sample.C", "sample.<module>"]
    found = callers("validate_run_config", sorted(SRC.glob("*.py")))
    assert found == ["harness.build_run"], f"callers of validate_run_config: {found}"


def test_core_names_no_objective_kind():
    """What depends on the objective kind lives with the objective table in
    `harness`, so `core` parses and checks a config without knowing one."""
    found = [f"core.py:{node.lineno} {node.value!r}" for node in ast.walk(parse(SRC / "core.py"))
             if isinstance(node, ast.Constant) and node.value in OBJECTIVES]
    assert not found, f"objective kinds named in core.py: {found}"


def test_the_engine_checks_no_config():
    """`harness.build_run` checks a config before `Simulation` is built, so
    `algorithms` neither raises nor imports a `ConfigError`."""
    tree = parse(SRC / "algorithms.py")
    found = [node.lineno for node in ast.walk(tree)
             if getattr(node, "id", None) == "ConfigError"
             or getattr(node, "attr", None) == "ConfigError"
             or isinstance(node, ast.alias) and node.name == "ConfigError"]
    assert not found, f"algorithms.py names ConfigError on lines {found}"


def copied_config_fields(tree: ast.Module) -> list[int]:
    """The lines that assign a `self.<name>` a value that may be a config
    field itself, `cfg.<field>` or `self.cfg.<field>`, as a whole or as a
    branch of a conditional: a copy of a setting rather than state computed
    from it."""

    def is_config(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == "cfg"
                or isinstance(node, ast.Attribute) and node.attr == "cfg"
                and isinstance(node.value, ast.Name) and node.value.id == "self")

    def copies_a_field(node: ast.AST) -> bool:
        if isinstance(node, ast.IfExp):
            return copies_a_field(node.body) or copies_a_field(node.orelse)
        if isinstance(node, ast.BoolOp):
            return any(map(copies_a_field, node.values))
        return isinstance(node, ast.Attribute) and is_config(node.value)

    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                    and t.value.id == "self" for t in node.targets)
            and copies_a_field(node.value)]


def test_the_engine_keeps_one_copy_of_its_settings():
    """`Simulation` reads its settings from the config `harness.build_run`
    settled, `self.cfg = cfg`, and holds no copy of a field that could
    drift from it."""
    sample = ast.parse("class S:\n def __init__(self, cfg):\n  self.cfg = cfg\n"
                       "  self.eta = cfg.eta\n  self.mu = cfg.mu if cfg.algorithm else 0.0\n"
                       "  self.seed = self.cfg.seed\n  self.v = f(cfg.seed) * cfg.gamma\n")
    assert copied_config_fields(sample) == [4, 5, 6]
    found = copied_config_fields(parse(SRC / "algorithms.py"))
    assert not found, f"algorithms.py copies config fields on lines {found}"


def replace_uses(tree: ast.Module) -> list[int]:
    """The lines that import or call `dataclasses.replace`: `from
    dataclasses import replace`, `replace(...)` or `dataclasses.replace(...)`."""
    def is_replace(func: ast.AST) -> bool:
        return (isinstance(func, ast.Name) and func.id == "replace"
                or isinstance(func, ast.Attribute) and func.attr == "replace"
                and isinstance(func.value, ast.Name) and func.value.id == "dataclasses")

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            and "replace" in [alias.name for alias in node.names]
            or isinstance(node, ast.Call) and is_replace(node.func)]


def test_no_module_rewrites_a_config():
    """A built run reads its config exactly as written: no module in the
    package imports or calls `dataclasses.replace` to copy a config with
    changed fields."""
    sample = ast.parse("from dataclasses import dataclass, replace\nimport dataclasses\n"
                       "a = replace(cfg, eta=1)\nb = dataclasses.replace(cfg)\n"
                       "c = text.replace('a', 'b')\n")
    assert sorted(replace_uses(sample)) == [1, 3, 4]
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in replace_uses(parse(path))]
    assert not found, f"dataclasses.replace imported or called at {found}"


def unread_fields(fields: list[str], paths: list[Path]) -> list[str]:
    """The names in `fields` that no module in `paths` names, either as an
    attribute such as `cfg.eta` or as a string such as a key table's
    "window_p"."""
    named = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return [name for name in fields if name not in named]


def test_every_run_config_key_has_a_reader(tmp_path):
    """A RunConfig field that no module but `core` names is a config key
    that nothing reads: it parses and passes every check, whatever its
    value, so a key cannot outlive its last reader."""
    sample = tmp_path / "sample.py"
    sample.write_text('KEYS = ("k_bar",)\ndef f(cfg): return cfg.eta\n')
    assert unread_fields(["eta", "k_bar", "unread"], [sample]) == ["unread"]
    fields = [field.name for field in dataclasses.fields(RunConfig)]
    readers = [path for path in sorted(SRC.glob("*.py")) if path.name != "core.py"]
    found = unread_fields(fields, readers)
    assert not found, f"RunConfig fields that nothing outside core.py names: {found}"


def functions_named(path: Path, name: str) -> list[ast.FunctionDef]:
    """Every function or method called `name` in `path`."""
    return [node for node in ast.walk(parse(path))
            if isinstance(node, ast.FunctionDef) and node.name == name]


def test_the_run_loop_checks_none_of_its_inputs():
    """Input is checked where it enters: `harness.build_run` for a config,
    the constructors and `eval_local`/`grad_local` for pieces built by hand.
    The per-step code the run loop calls only does arithmetic: no oracle
    names an input check, and neither the local update nor the noise map
    raises."""
    oracles = functions_named(SRC / "objectives.py", "stoch_grad_local")
    assert len(oracles) == 4, "the check no longer sees every oracle"
    checks = {"_check_client", "_check_x", "_weights"}
    found = [f"objectives.py:{node.lineno} {node.attr}" for oracle in oracles
             for node in ast.walk(oracle) if getattr(node, "attr", None) in checks]
    assert not found, f"oracles that check their inputs: {found}"
    for module, name in (("algorithms.py", "client_local_update"), ("core.py", "gaussians_from")):
        [function] = functions_named(SRC / module, name)
        raises = [node.lineno for node in ast.walk(function) if isinstance(node, ast.Raise)]
        assert not raises, f"{module}:{name} raises on lines {raises}"

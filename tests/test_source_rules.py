"""Rules on the library source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import hopfcm

ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_reads(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_NAMES for alias in node.names):
                yield node.lineno


def test_library_takes_configuration_as_arguments_not_environment():
    modules = sorted(Path(hopfcm.__file__).parent.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{line}" for path in modules for line in _environment_reads(path)
    ]
    assert offenders == []


NUMBER_TYPE_TAGS = {"float", "exact"}
# the two readers of a declared tag: a system document and the catalog registry
TAG_READERS = {("polysys.py", "parse_system"), ("catalog.py", "build")}


def _tag_comparisons(path):
    """(function, line) of each comparison with the literal "float" or
    "exact", alone or inside a tuple, list or set."""

    def is_tag(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(is_tag, node.elts))
        return isinstance(node, ast.Constant) and node.value in NUMBER_TYPE_TAGS

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) and any(map(is_tag, [node.left, *node.comparators])):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), str(path)), None)


def test_the_number_type_comes_from_the_coefficients_not_a_tag():
    """Only a system document and the catalog registry declare "float" or
    "exact"; everywhere else the coefficients say which they are."""
    modules = sorted(Path(hopfcm.__file__).parent.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{line} in {function}"
        for path in modules
        for function, line in _tag_comparisons(path)
        if (path.name, function) not in TAG_READERS
    ]
    assert offenders == []


REPO = Path(__file__).resolve().parents[1]
# the callers: the package (whose __init__ imports count, since __all__ is
# its public API), the scripts and the benchmark; a use in tests/ alone does
# not make a definition part of the program
SEARCHED = ("src", "scripts", "perfbench")
# reference implementations that only tests call: each is an oracle that
# shares no code with the path it checks
TEST_ORACLES = {"identity_defect", "roundtrip_defect"}
# a string that is a (dotted) name, as getattr and the benchmark tracer use
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _definitions(path):
    """Module-level functions and classes, and non-dunder methods, as
    (qualified name, name, line)."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def _names_in(node):
    """(name, whether it is an attribute) of each name ``node`` uses: an
    attribute access and a dotted string name an attribute, a bare name and
    an import do not."""
    if isinstance(node, ast.Name):
        yield node.id, False
    elif isinstance(node, ast.Attribute):
        yield node.attr, True
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1], False
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if DOTTED_NAME.match(node.value):
            yield from ((part, True) for part in node.value.split("."))


def _referenced_names(path):
    """Every (name, is attribute) the file uses, except inside a function of
    that name: a function that calls itself, or a method that calls its
    namesake on another type, is not a caller."""

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        yield from (used for used in _names_in(node) if used[0] not in enclosing)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing)

    yield from visit(ast.parse(path.read_text(), str(path)), frozenset())


def test_every_library_definition_is_referenced_by_name():
    """Name-based, so a definition is reported only when no file of the
    program (tests excluded) uses its name outside a function of the same
    name; its own def statement is not a use of it.  A method counts as used
    only through an attribute (``x.name``) or a dotted string, so a local
    variable of the same name does not keep it."""
    used = {
        (name, attribute)
        for top in SEARCHED
        for path in sorted((REPO / top).rglob("*.py"))
        for name, attribute in _referenced_names(path)
    }
    names = TEST_ORACLES | {name for name, _ in used}
    attributes = {name for name, attribute in used if attribute}
    modules = sorted(Path(hopfcm.__file__).parent.glob("*.py"))
    assert modules
    unreferenced = [
        f"{path.name}:{line} {qualified}"
        for path in modules
        for qualified, name, line in _definitions(path)
        if name not in (names if qualified == name else attributes)
    ]
    assert unreferenced == []


def _defaulted_parameters(path):
    """(qualified name, name a call uses, positional parameters, parameters
    with a default) of each module-level function and method; ``self`` or
    ``cls`` is left out, and ``__init__`` is called by its class's name."""

    def signature(fn, qualified, name, bound):
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args][bound:]
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default
        ]
        return qualified, name, positional, defaulted

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, functions):
            yield signature(node, node.name, node.name, False)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, functions):
                    continue
                if item.name == "__init__":
                    name = node.name
                elif item.name.startswith("__") and item.name.endswith("__"):
                    continue
                else:
                    name = item.name
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list
                )
                yield signature(item, f"{node.name}.{item.name}", name, not static)


def _call_sites(path):
    """The calls of the file as (called name, call), the names it uses
    other than as the function of a call, and its string constants; as in
    ``_referenced_names``, nothing inside a function of the same name
    counts."""
    calls, named, strings = [], set(), set()

    def name_of(node):
        if isinstance(node, ast.Name):
            return node.id
        return node.attr if isinstance(node, ast.Attribute) else None

    def visit(node, enclosing, called):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        name = name_of(node)
        if isinstance(node, ast.Call) and name_of(node.func) not in enclosing:
            calls.append((name_of(node.func), node))
        elif name is not None and node is not called and name not in enclosing:
            named.add(name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, node.func if isinstance(node, ast.Call) else None)

    visit(ast.parse(path.read_text(), str(path)), frozenset(), None)
    return calls, named, strings


def test_every_defaulted_parameter_is_set_by_the_program():
    """A parameter with a default that no call of the program sets has one
    value in use, and that value belongs in a constant.  Name-based, like
    the reference rule: a call sets a parameter by keyword or by position,
    and ``*args`` or ``**kwargs`` sets every one it could.  A function the
    program names other than in a call (a registry entry, a callback)
    counts as called with every parameter, and a parameter whose name is a
    string constant of the program (``kwargs["out_dir"]``) counts as set."""
    calls, named, strings = [], set(), set()
    for top in SEARCHED:
        for path in sorted((REPO / top).rglob("*.py")):
            file_calls, file_named, file_strings = _call_sites(path)
            calls += file_calls
            named |= file_named
            strings |= file_strings
    modules = sorted(Path(hopfcm.__file__).parent.glob("*.py"))
    assert modules
    unset = []
    for path in modules:
        for qualified, name, positional, defaulted in _defaulted_parameters(path):
            if name in named:
                continue
            set_here = set(strings)
            for called, call in calls:
                if called != name:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                set_here.update(positional if starred else positional[: len(call.args)])
                for keyword in call.keywords:
                    set_here.update(defaulted if keyword.arg is None else {keyword.arg})
            unset += [
                f"{path.name} {qualified}({parameter})"
                for parameter in defaulted
                if parameter not in set_here
            ]
    assert unset == []


def test_the_command_line_imports_no_numpy_or_scipy(tmp_path):
    # a fresh interpreter, since the test session itself loads numpy; the
    # float commands run first, so a lazy import inside them shows too
    code = f"""
import contextlib, io, sys
from hopfcm.cli import main
runs = [
    ["focus", "--system", "e4-normal", "--params", "c=0.25,h=2", "--order", "2"],
    ["normalize", "--system", "e4m", "--params", "c=0.25,h=2"],
    ["simulate", "--system", "e1-center", "--params", "d=1", "--x0", "0.5,-0.75,0.1",
     "--tmax", "10", "--out", {str(tmp_path / "t.csv")!r}],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0] []"


# paramfield's gcd and exact division: they work on the integer parts of
# polynomials, and a polynomial's rational content stays outside them
INTEGER_KERNEL = {
    "_div_int", "exact_div", "_int_content", "_evaluate_at", "_xi_adic", "_times",
    "_heu_gcd", "poly_gcd",
}
RATIONAL_TYPES = {"Fraction"}


def _rational_constructions(path, functions):
    """(function, line) of each call that builds a rational number (the
    type itself, or one of its class methods) inside the named module-level
    functions, and the set of those functions that were found."""
    found, calls = set(), []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            found.add(node.name)
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if isinstance(func, ast.Attribute):
                    func = func.value
                if isinstance(func, ast.Name) and func.id in RATIONAL_TYPES:
                    calls.append((node.name, call.lineno))
    return found, calls


def test_the_gcd_kernel_builds_no_rationals():
    path = Path(hopfcm.__file__).parent / "paramfield.py"
    found, calls = _rational_constructions(path, INTEGER_KERNEL)
    assert found == INTEGER_KERNEL
    assert calls == []

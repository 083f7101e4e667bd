"""Rules on the library source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import hopfcm
from hopfcm import paramfield, simulate
from hopfcm.catalog import build, e4_normal, e5_normal

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
# the callers: the package, the scripts and the benchmark; a use in tests/
# alone does not make a definition part of the program
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
    program (tests excluded) uses its name
    outside a function of the same name; its own def statement is not a use
    of it.  A method counts as used only through an attribute (``x.name``)
    or a dotted string, so a local variable of the same name does not keep
    it."""
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


def test_the_package_module_holds_only_its_docstring():
    """The API is the submodules: ``import hopfcm`` re-exports nothing, so
    no name is kept alive by an export alone."""
    body = ast.parse((REPO / "src" / "hopfcm" / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_no_class_defines_an_is_zero_method():
    """Every scalar and polynomial is zero exactly when it is falsy, so no
    class keeps a second zero test."""
    modules = sorted(Path(hopfcm.__file__).parent.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{item.lineno} {node.name}.is_zero"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "is_zero"
    ]
    assert offenders == []


def test_a_rational_constant_has_one_representation():
    """A constant is a Fraction, so ParamExpr keeps no constant API of its
    own."""
    path = Path(paramfield.__file__)
    (cls,) = [
        node
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.ClassDef) and node.name == "ParamExpr"
    ]
    removed = {"const", "zero", "one", "is_constant", "constant_value"}
    defined = [
        (item.lineno, name)
        for item in cls.body
        for name in (
            [item.name] if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            else [t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)]
        )
    ]
    offenders = [f"{path.name}:{line} ParamExpr.{name}" for line, name in defined if name in removed]
    assert "__add__" in {name for _, name in defined}
    assert offenders == []


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


def _dataclass_fields(path):
    """(class name, positional fields, fields with a default) of each
    module-level dataclass; a field after ``_: KW_ONLY`` is keyword-only."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(node, ast.ClassDef) or not any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            continue
        positional, defaulted, keyword_only = [], [], False
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                continue
            if ast.unparse(item.annotation) == "KW_ONLY":
                keyword_only = True
                continue
            if not keyword_only:
                positional.append(item.target.id)
            if item.value is not None:
                defaulted.append(item.target.id)
        yield node.name, positional, defaulted


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


def _set_by_calls(name, positional, defaulted, calls):
    """The parameters that the calls of ``name`` set, by keyword or by
    position; ``*args`` or ``**kwargs`` sets every one it could."""
    set_here = set()
    for called, call in calls:
        if called != name:
            continue
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        set_here.update(positional if starred else positional[: len(call.args)])
        for keyword in call.keywords:
            set_here.update(defaulted if keyword.arg is None else {keyword.arg})
    return set_here


def test_the_focus_recursion_names_no_number_type():
    """The Psi recursion is generic over the coefficient scalar: the sums it
    needs go through ``paramfield.dot``, which alone picks a fused path for
    jets, so ``focusq`` names neither ``Jet`` nor ``GaussExpr``."""
    import hopfcm.focusq

    path = Path(hopfcm.focusq.__file__)
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
        if name in {"Jet", "GaussExpr"}
    ]
    assert offenders == []


def test_only_negligible_decides_when_a_float_is_zero():
    """``paramfield.negligible`` alone decides when a computed value counts
    as zero, so ``FLOAT_TOL`` is named only in ``paramfield`` (its
    definition and ``negligible``) and, imported for it, in the normal
    form's chop of float coefficients, which is a cut-off, not a test.
    Nor is any ``abs(...)`` compared with a number literal, a threshold of
    its own beside ``negligible``."""
    allowed = {
        ("paramfield.py", "<module>"),
        ("paramfield.py", "negligible"),
        ("normalform.py", "import"),
        ("normalform.py", "to_normal_form.chop"),
    }
    offenders = []

    def visit(path, node, place):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            place = node.name
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "chop":
            place = f"{place}.chop"
        names = (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
        if "FLOAT_TOL" in names:
            where = "import" if isinstance(node, ast.ImportFrom) else place
            if (path.name, where) not in allowed:
                offenders.append(f"{path.name}:{node.lineno} in {where}")
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                if {kind(left), kind(right)} == {"abs", "number"}:
                    compared = ast.Compare(left, [op], [right])
                    offenders.append(f"{path.name}:{node.lineno} {ast.unparse(compared)}")
        for child in ast.iter_child_nodes(node):
            visit(path, child, place)

    def kind(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return "number"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "abs":
            return "abs"
        return None

    for path in sorted(Path(hopfcm.__file__).parent.glob("*.py")):
        visit(path, ast.parse(path.read_text(), str(path)), "<module>")
    assert offenders == []


def test_every_defaulted_parameter_is_set_by_the_program():
    """A parameter with a default that no call of the program sets has one
    value in use, and that value belongs in a constant.  Name-based, like
    the reference rule.  A function the program names other than in a call
    (a registry entry, a callback) counts as called with every parameter,
    and a parameter whose name is a string constant of the program
    (``kwargs["out_dir"]``) counts as set.  A dataclass field with a
    default must be set by a call of its class."""
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
            set_here = strings | _set_by_calls(name, positional, defaulted, calls)
            unset += [
                f"{path.name} {qualified}({parameter})"
                for parameter in defaulted
                if parameter not in set_here
            ]
        for name, positional, defaulted in _dataclass_fields(path):
            set_here = _set_by_calls(name, positional, defaulted, calls)
            unset += [
                f"{path.name} {name}.{field}" for field in defaulted if field not in set_here
            ]
    assert unset == []


def _load_tracer():
    # executed from source, so no bytecode cache is written under perfbench/
    path = REPO / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_name_the_benchmark_tracer_wraps_exists():
    """The benchmark's tracer wraps library functions and methods by name,
    and installing it fails on a name the library no longer has."""
    tracer = _load_tracer()

    def module(name):
        return importlib.import_module(f"hopfcm.{name}")

    functions = [
        *tracer.SPAN_FUNCTIONS,
        *tracer.KERNEL_FUNCTIONS,
        ("simulate", "displacement"),
        ("simulate", "measure_period"),
    ]
    missing = [
        f"{mod}.{name}" for mod, name in functions if not callable(getattr(module(mod), name, None))
    ]
    missing += [
        f"{mod}.{cls}.{method}"
        for mod, cls, _, methods in tracer.KERNEL_METHODS
        for method in methods
        if not callable(vars(getattr(module(mod), cls, object)).get(method))
    ]
    assert missing == []


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


# the one place the library runs generated code: the factory of the Taylor
# kernel for one field shape
CODE_RUNNERS = {"exec", "eval", "compile"}
KERNEL_FACTORY = ("simulate.py", "_kernel_factory")


def _code_runs(path):
    """(function, line) of each call of ``exec``, ``eval`` or ``compile``,
    by name or as an attribute of ``builtins``."""

    def runs_code(func):
        if isinstance(func, ast.Name):
            return func.id in CODE_RUNNERS
        return (isinstance(func, ast.Attribute) and func.attr in CODE_RUNNERS
                and isinstance(func.value, ast.Name) and func.value.id == "builtins")

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and runs_code(node.func):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), str(path)), None)


def test_generated_code_runs_only_in_the_kernel_factory():
    modules = sorted(Path(hopfcm.__file__).parent.glob("*.py"))
    assert modules
    runs = [(path.name, function) for path in modules for function, _ in _code_runs(path)]
    assert runs and set(runs) == {KERNEL_FACTORY}


def test_generated_kernel_source_holds_no_numbers_or_text(monkeypatch):
    """Coefficients and constants are arguments of the kernel factory, so
    the source holds integer indices and fixed names only."""
    blocks = []
    factory = simulate._kernel_factory

    def record(*args):
        blocks.append(args)
        return factory(*args)

    monkeypatch.setattr(simulate, "_kernel_factory", record)
    fields = [build("e1-center", {"d": 1}).to_float(), e4_normal({"c": 0.25, "h": 2.0}),
              e5_normal({"c": -0.25, "h": 2.0})]
    for fld in fields:
        # order 20 compiles every block of a run at double precision
        start = len(blocks)
        simulate.taylor_plan(fld.monomials)([0.1, 0.0, 0.0], 20)
        orders = [n for args in blocks[start:] for n in range(*args[2:])]
        assert orders == list(range(20))
    for args in blocks:
        tree = ast.parse(simulate._kernel_source(*args))
        literals = [
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is not int
        ]
        assert literals == []


# the modules that take numbers from outside: a float among them comes from
# ``paramfield.finite_float``, which refuses a value that does not fit one
FLOAT_FREE_MODULES = ("catalog.py", "cli.py", "grammar.py", "polysys.py")


def _float_uses(path):
    """Line of each use of the builtin ``float``, called or passed as a
    value, other than as a type of an ``isinstance`` check or as the
    ``type`` of an ``add_argument`` option (``--tmax`` and ``--tol``, whose
    infinities and NaN ``simulate.integrate`` refuses)."""
    tree = ast.parse(path.read_text(), str(path))
    checked = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", None) == "isinstance":
            checked.update(map(id, ast.walk(node.args[1])))
        elif getattr(node.func, "attr", None) == "add_argument":
            checked.update(id(kw.value) for kw in node.keywords if kw.arg == "type")
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "float" and id(node) not in checked
    ]


def test_input_modules_convert_to_float_only_through_finite_float():
    package = Path(hopfcm.__file__).parent
    offenders = [
        f"{name}:{line}" for name in FLOAT_FREE_MODULES for line in _float_uses(package / name)
    ]
    assert offenders == []


def _json_reads(path):
    """(function, line) of each call of ``json.load`` or ``json.loads``."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and func.attr in ("load", "loads")
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), str(path)), None)


def test_one_function_reads_json():
    """Transform files, cyclicity configs and system documents are read by
    one reader, so each is refused the same way when it is not an object."""
    modules = sorted(Path(hopfcm.__file__).parent.glob("*.py"))
    assert modules
    reads = {(path.name, function) for path in modules for function, _ in _json_reads(path)}
    assert reads == {("polysys.py", "read_json")}

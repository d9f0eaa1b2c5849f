import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from prymrep.cyclotomic import MAX_D

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prymrep"


def test_every_private_helper_is_referenced():
    # a private function or class that no name, attribute or import in the
    # package refers to is dead code; a string that names it does not count
    defined, used = {}, set()
    for src in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(src.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.setdefault(node.name, f"{src.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined, SRC
    assert sorted(f"{at} {name}" for name, at in defined.items() if name not in used) == []


def _names(tree):
    """Every name, attribute and imported name in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _public_defs(tree):
    """The public module-level functions and classes of a module, and the
    public methods and properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_public_name_is_used():
    # a public module-level function or class, or a public method or
    # property of a class, that no module of the package names (__init__
    # only re-exports), no benchmark file names and no README code span
    # documents serves the tests alone, and belongs with them; cli.main
    # reaches the cmd_* functions through globals()
    modules = {src.name: ast.parse(src.read_text())
               for src in sorted(SRC.glob("*.py")) if src.name != "__init__.py"}
    used = set().union(*map(_names, modules.values()))
    for bench in sorted((ROOT / "benchmarks").glob("*.py")):
        used |= _names(ast.parse(bench.read_text()))
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        used.update(re.findall(r"\w+", span))
    assert len(modules) > 5 and "evaluate" in used
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in modules.items() for node in _public_defs(tree)
              if not node.name.startswith("_") and node.name not in used
              and not (name == "cli.py" and node.name.startswith("cmd_"))]
    assert unused == []


def _scoped_nodes(tree, scope=""):
    """(qualified name of the function or class around it, node) for each
    node of tree; a node outside any of them has the scope "<module>"."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(node, f"{scope}{node.name}.")
            continue
        yield scope.rstrip(".") or "<module>", node
        yield from _scoped_nodes(node, scope)


def _calls_by_function(tree, name):
    """The qualified name of the function around each call of name in tree."""
    return (qual for qual, node in _scoped_nodes(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_only_the_endo_constructor_reduces_free_words():
    # an Endo stores its words reduced, so every walk reads them as they
    # stand: no other function of the package calls word_mul
    callers = {f"{src.name} {qual}"
               for src in sorted(SRC.glob("*.py"))
               for qual in _calls_by_function(ast.parse(src.read_text()), "word_mul")}
    assert callers == {"foxcover.py Endo.__init__"}


def test_free_word_text_is_read_in_place_and_errors_name_their_position():
    # parse_endo_images and _free_word read the caller's string through
    # regex matches bounded by positions: no split, strip, slice or fullmatch
    # copies it.  A ParseError keeps its message, so nothing cuts its text at
    # ' at ', and no message counts a position from a copy ('near position')
    text = "".join(src.read_text() for src in sorted(SRC.glob("*.py")))
    assert not re.search(r"""split\(\s*["'] at ["']""", text)
    assert "near position" not in text
    defs = {node.name: node for node in ast.walk(ast.parse((SRC / "foxcover.py").read_text()))
            if isinstance(node, ast.FunctionDef)}
    for name in ("parse_endo_images", "_free_word"):
        calls = {getattr(node.func, "attr", getattr(node.func, "id", None))
                 for node in ast.walk(defs[name]) if isinstance(node, ast.Call)}
        assert calls & {"split", "rsplit", "strip", "lstrip", "rstrip", "fullmatch"} == set(), name
        assert not any(isinstance(node, ast.Slice) for node in ast.walk(defs[name])), name


def _defs(module):
    """The functions and classes defined anywhere in a module, by name."""
    return {node.name: node for node in ast.walk(ast.parse((SRC / module).read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_ring_literals_have_one_reader_and_matrix_entries_are_read_in_place():
    # the term pattern of _literal_terms is the only ring-literal reader and
    # reports its own errors, so no fallback scanner re-reads what it refuses;
    # it and parse_matrix_poly read the caller's string through positions, so
    # no split, strip, fullmatch, findall or slice copies it, and an entry's
    # error counts in the whole matrix
    assert {"_Scanner", "_scanned_terms"} & set(_defs("cyclotomic.py")) == set()
    assert "_Parser" in _defs("wordlang.py")
    for module, name in (("cyclotomic.py", "_literal_terms"),
                         ("ringlinalg.py", "parse_matrix_poly")):
        fn = _defs(module)[name]
        calls = {getattr(node.func, "attr", getattr(node.func, "id", None))
                 for node in ast.walk(fn) if isinstance(node, ast.Call)}
        assert calls & {"split", "rsplit", "strip", "lstrip", "rstrip", "fullmatch",
                        "findall"} == set(), name
        assert not any(isinstance(node, ast.Slice) for node in ast.walk(fn)), name


def test_every_sweep_is_a_generator_under_the_one_runner():
    # _sweep counts the cases and builds the report, so each sweep that
    # run_selftest yields is a generator decorated @_sweep("<name>"), wrapped
    # with its own signature, and no sweep nests a def cases
    from prymrep import sweeps

    defs = _defs("sweeps.py")
    runs = [node.value.func.id for node in ast.walk(defs["run_selftest"])
            if isinstance(node, ast.Yield)]
    decorated = sorted(name for name, node in defs.items()
                       if [ast.unparse(dec)[:7] for dec in node.decorator_list] == ["_sweep("])
    assert len(runs) == 10 and decorated == sorted(runs)
    assert sorted(row[1] for row in sweeps.CRITERIA) == sorted(runs)
    for name in runs:
        assert inspect.isgeneratorfunction(getattr(sweeps, name).__wrapped__), name
    assert "cases" not in defs and "_run" not in defs


def test_verdict_require_is_the_one_refusal_that_quotes_a_reason():
    # a negative verdict becomes "<what>: <reason>" in one place
    sites = [f"{src.name} {qual}"
             for src in sorted(SRC.glob("*.py"))
             for qual, node in _scoped_nodes(ast.parse(src.read_text()))
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and ast.unparse(node.exc.func) == "ValueError"
             and any(getattr(sub, "attr", None) == "reason" for sub in ast.walk(node.exc))]
    assert sites == ["predicates.py Verdict.require"]


def test_the_form_layout_has_one_owner():
    # ringlinalg states Omega's layout: a negative word exponent and
    # BlockMat.form_inverse share _form_dual, wordlang does no twin or sign
    # arithmetic of its own, and membership names a failed block clause from
    # the form walk, with no RingMatrix product
    imports = {}
    for module in ("wordlang", "predicates"):
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                imports.update({(module, alias.name): node.module for alias in node.names})
    assert {"_conj", "_neg"} & {name for module, name in imports if module == "wordlang"} == set()
    assert imports[("wordlang", "_rank_update")] == "ringlinalg"
    assert ("predicates", "RingMatrix") not in imports
    callers = sorted(f"{src.name} {qual}" for src in sorted(SRC.glob("*.py"))
                     for qual in _calls_by_function(ast.parse(src.read_text()), "_form_dual"))
    assert callers == ["ringlinalg.py BlockMat.form_inverse", "wordlang.py evaluate"]


def test_wordlang_has_one_parser_class():
    classes = {name: node for name, node in _defs("wordlang.py").items()
               if isinstance(node, ast.ClassDef)}
    assert sorted(classes) == ["Word", "_Parser"] and classes["_Parser"].bases == []


def test_generator_entries_read_d_only_through_ring_constructors():
    # the premise of test_generators.py::test_criteria_1_to_3_at_d_61_hold_at_every_d:
    # each entry function but UrSp's, and each function of generators it
    # hands d to as a parameter named d, reads d only as the first argument
    # of one, zeta_pow, CycInt.from_int or CycInt.from_poly, so its entries
    # are Laurent polynomials in zeta_d whose coefficients do not depend on d
    from prymrep.generators import FAMILIES

    defs = _defs("generators.py")
    ring = {"one", "zeta_pow", "CycInt.from_int", "CycInt.from_poly"}
    todo = [fam.entries.__name__ for fam in FAMILIES.values() if fam.takes != "matrix"]
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        allowed = set()
        for call in ast.walk(defs[name]):
            if not isinstance(call, ast.Call):
                continue
            callee = ast.unparse(call.func)
            for at, arg in enumerate(call.args):
                if not (isinstance(arg, ast.Name) and arg.id == "d"):
                    continue
                if callee in ring and at == 0:
                    allowed.add(arg)
                elif callee in defs and [a.arg for a in defs[callee].args.args][at:at + 1] == ["d"]:
                    allowed.add(arg)
                    todo.append(callee)
        reads = [node for node in ast.walk(defs[name])
                 if isinstance(node, ast.Name) and node.id == "d" and node not in allowed]
        assert reads == [], (name, [ast.unparse(node) for node in reads], reads[0].lineno)
    assert {"_zeta_on_plane", "_image_entries", "_ti_entries"} <= seen


def test_only_foxcover_owns_the_letter_budget_and_cli_main_checks_d_and_g():
    # the walk budget is foxcover's decision alone, and the --d/--g check
    # runs once, in cli.main, for every command that takes them
    owners = {src.name for src in sorted(SRC.glob("*.py"))
              if {"MAX_LETTERS", "_certificate_walk"} & _names(ast.parse(src.read_text()))}
    assert owners == {"foxcover.py"}
    callers = [f"{src.name} {qual}"
               for src in sorted(SRC.glob("*.py"))
               for qual in _calls_by_function(ast.parse(src.read_text()), "_require_dg")]
    assert callers == ["cli.py main"]


def _is_write(node, name):
    """Does node write the instance attribute name: define it as a
    cached_property, store or delete it, pass it as a keyword, or store
    under, key a dict by or setattr its string?"""
    text = ast.dump(ast.Constant(name))
    if isinstance(node, ast.FunctionDef):
        return node.name == name and "cached_property" in map(ast.unparse, node.decorator_list)
    if isinstance(node, ast.Attribute):
        return node.attr == name and not isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.keyword):
        return node.arg == name
    if isinstance(node, ast.Subscript):
        return ast.dump(node.slice) == text and not isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Dict):
        return text in map(ast.dump, filter(None, node.keys))
    if isinstance(node, ast.Call):
        return "setattr" in ast.unparse(node.func) and text in map(ast.dump, node.args)
    return False


def _nodes_by_function(tree, pred, scope=""):
    """The qualified name of the function around each node of tree that
    pred holds for; a function or class it holds for gives its own name."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}{node.name}."
        if pred(node):
            yield inner.rstrip(".") or "<module>"
        yield from _nodes_by_function(node, pred, inner)


def test_only_compose_and_inverse_carry_a_certificate():
    # an Endo's certificate outcome is walked (the cached_property) or
    # carried: _checked is the one carry site, and only compose and inverse
    # pass it a carry, so every other Endo, parsed or built, walks its own
    def found(pred):
        return {f"{src.name} {qual}" for src in sorted(SRC.glob("*.py"))
                for qual in _nodes_by_function(ast.parse(src.read_text()), pred)}

    assert found(lambda node: _is_write(node, "_certificate_failure")) == {
        "foxcover.py Endo._certificate_failure", "foxcover.py _checked"}
    assert found(lambda node: isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_checked"
                 and len(node.args) + len(node.keywords) > 2) == {
        "foxcover.py Endo.compose", "foxcover.py Endo.inverse"}


def _constructors(gens):
    """{name: def} of the catalogue constructors, which take (g, d, ...)."""
    return {node.name: node for node in gens.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.args.args and node.args.args[0].arg == "g"}


def test_generators_are_named_by_registry_key_outside_generators():
    # the catalogue constructors, which take (g, d, ...), are a second name
    # for each family of generators.FAMILIES: no other module of the package
    # imports or calls one, and the package root exports none, so the rest
    # of the package builds a generator as matrix_of(GenSpec(name, ...), d, g)
    import prymrep
    constructors = set(_constructors(ast.parse((SRC / "generators.py").read_text())))
    assert len(constructors) == 14 and {"big_T", "delta_g3"} <= constructors
    named = {src.name: _names(ast.parse(src.read_text()))
             for src in sorted(SRC.glob("*.py")) if src.name != "generators.py"}
    assert {name: sorted(ns & constructors) for name, ns in named.items()
            if ns & constructors} == {}
    assert sorted(constructors & set(dir(prymrep))) == []


def test_constructors_build_through_genspec_and_matrix_of():
    # each constructor is one call of the registry route, so GenSpec states
    # every argument rule that needs no (d, g), once, and _entries only the
    # rules that need g: no second index, slot or ring-scalar rule
    from prymrep.generators import FAMILIES
    gens = ast.parse((SRC / "generators.py").read_text())
    for name, fn in _constructors(gens).items():
        body = fn.body[1:] if ast.get_docstring(fn) else fn.body
        call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        assert (isinstance(call, ast.Call) and ast.unparse(call.func) == "matrix_of"
                and ast.unparse(call.args[0].func) == "GenSpec"
                and call.args[0].args[0].value in FAMILIES
                and [ast.unparse(a) for a in call.args[1:]] == ["d", "g"]), name
    callers = [f"{src.name} {qual}" for src in sorted(SRC.glob("*.py"))
               for qual in _calls_by_function(ast.parse(src.read_text()), "_check_slots")]
    assert callers == ["generators.py GenSpec.__new__"]
    defs = {node.name: node for node in gens.body if isinstance(node, ast.FunctionDef)}
    called = {ast.unparse(node.func).rpartition(".")[2]
              for node in ast.walk(defs["_entries"]) if isinstance(node, ast.Call)}
    assert called & {"_ints", "_check_slots", "_coerce"} == set()
    assert "_build" not in defs and "_build" not in _names(gens)


def _unchecked_record_route(node):
    """Is node an import of dataclasses, or a call that writes past a
    constructor: object.__setattr__, a namedtuple's _replace, or any _make
    but RingMatrix's trusted constructor?"""
    if isinstance(node, ast.Import):
        return any(alias.name == "dataclasses" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "dataclasses"
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    call = ast.unparse(node.func)
    return (call == "object.__setattr__" or node.func.attr == "_replace"
            or node.func.attr == "_make" and call not in ("RingMatrix._make", "cls._make"))


def test_records_are_built_only_through_their_constructors():
    # the records are namedtuples or __slots__ classes whose constructors
    # check and normalise their fields: no dataclass, no write past a frozen
    # instance, and no namedtuple route around the checks of GenSpec.__new__
    found = {src.name: sorted(_nodes_by_function(ast.parse(src.read_text()),
                                                 _unchecked_record_route))
             for src in sorted(SRC.glob("*.py"))}
    assert {name: quals for name, quals in found.items() if quals} == {}
    rings = {qual for qual in _nodes_by_function(
        ast.parse((SRC / "ringlinalg.py").read_text()),
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "cls._make")}
    assert rings and all(qual.startswith("RingMatrix.") for qual in rings)


def test_importing_the_cli_loads_no_dataclasses_and_no_sweeps():
    # a cold start of the package and its CLI: the records need no
    # dataclasses, which brings inspect, ast and dis, and the sweeps load
    # only for selftest
    probe = ("import sys; before = set(sys.modules); import prymrep, prymrep.cli; "
             "print(prymrep.__file__); print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, cwd=ROOT, check=True).stdout.splitlines()
    assert Path(out[0]).resolve() == SRC / "__init__.py"
    loaded = set(out[1].split())
    assert "prymrep.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "prymrep.sweeps"} == set()


def _benchmark_tree(name):
    return ast.parse((ROOT / "benchmarks" / name).read_text())


def test_the_benchmark_harness_names_exist_in_the_package():
    # benchmarks/ is read here, never run or changed: the CRITERIA of
    # acceptance.py equal sweeps.CRITERIA, so its copy cannot drift, every
    # row binds to its sweep's signature, and every attribute that
    # workloads.py reads off a package module exists, so dropping a keyword
    # or a name that the harness passes fails here, not in the harness
    from prymrep import sweeps
    ns = {}
    for node in _benchmark_tree("acceptance.py").body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("SEED", "CRITERIA"):
            exec(compile(ast.Module([node], []), "acceptance.py", "exec"), ns)
    assert len(ns["CRITERIA"]) == 10 and ns["CRITERIA"] == sweeps.CRITERIA
    for _, name, args, kwargs, _ in ns["CRITERIA"]:
        inspect.signature(getattr(sweeps, name)).bind(*args, **kwargs)
    tree = _benchmark_tree("workloads.py")
    aliases = {alias.asname: importlib.import_module(f"prymrep.{alias.name}")
               for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "prymrep"
               for alias in node.names if alias.asname}
    assert sorted(aliases) == ["cyc", "dec", "fox", "gen", "pred", "rla", "wl"]
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert len(read) > 20
    assert sorted(f"{a}.{attr}" for a, attr in read if not hasattr(aliases[a], attr)) == []


# Each input rule: the one statement of its message in the package source,
# and a pattern of the text it raises.  test_each_input_rule_has_one_message
# counts the statements, and the contract fuzz (_refusal_problem) matches
# what a refusal raises against the patterns, so a rule is registered once.
# The owners: euler_phi (the modulus rule; its integer clause is _ints',
# which also states the integer clause of the rank and genus rules and of
# the dimension and exponent arguments), ringlinalg._side (genus),
# cyclotomic._same_modulus (operands share a modulus), foxcover._rank and
# _same_rank (rank), foxcover._generator (the free-word index rule),
# foxcover._check_letters (the letter rule), parse_free_word (the free-word
# text), RingMatrix._fill (the matrix shape rule) and wordlang.Word (word
# factors).
INPUT_RULES = [
    ('"modulus d must be >= 2"', r"modulus d must be >= 2"),
    ('"modulus d = {d} is over the budget MAX_D = {MAX_D}"',
     r"modulus d = -?\d+ is over the budget MAX_D = \d+"),
    ('"{what} must be integers"',
     r"(moduli|ranks|genera|matrix dimensions|exponents|free-word letters) must be integers"),
    ('"genus must be >= 2"', r"genus must be >= 2"),
    ("modulus mismatch", r"modulus mismatch: d=\S+ vs d=\S+"),
    ('"rank must be >= 2"', r"rank must be >= 2"),
    ('"rank mismatch"', r"rank mismatch"),
    ("out of range for rank", r"generator x\d+ out of range for rank \d+ at position \d+: '.*'"),
    ("is not a generator of rank", r"letter -?\d+ is not a generator of rank \d+"),
    ("bad free word", r"bad free word at position \d+: '.*'"),
    ('"matrix dimensions must be positive"', r"matrix dimensions must be positive"),
    ('"word factors must be (GenSpec, int) pairs"', r"word factors must be \(GenSpec, int\) pairs"),
]


def test_each_input_rule_has_one_message():
    # each rule of INPUT_RULES is stated in one place, which every route
    # passes through; so are the block-shape rule of BlockMat, the text of
    # the integer rule, which coefficients, letters, indices, the modulus,
    # the rank and the genus share, and the ring-scalar test, an int or a
    # CycInt, which is CycInt._coerce's: no other code asks for a CycInt
    text = "".join(src.read_text() for src in sorted(SRC.glob("*.py")))
    assert {statement: text.count(statement) for statement, _ in INPUT_RULES} == {
        statement: 1 for statement, _ in INPUT_RULES}
    assert text.count('must be integers"') == 1
    assert len(re.findall(r"\{[\w.]*rows\}x\{[\w.]*cols\}", text)) == 1
    calls, coerce = [], None
    for src in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(src.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "_coerce":
                coerce = src.name, range(node.lineno, node.end_lineno + 1)
            if (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance"
                    and "CycInt" in ast.unparse(node.args[1])):
                calls.append((src.name, node.lineno))
    assert calls and all(name == coerce[0] and line in coerce[1] for name, line in calls)


def test_the_closed_path_rule_has_one_owner():
    # lift_class states the rule; _lift, which eta_chain walks only after
    # check_member has passed the same x_g-exponents, does not state it again
    text = (SRC / "foxcover.py").read_text()
    defs = {node.name: node for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)}
    assert "exponent_sum" not in _names(defs["_lift"])
    message = "does not lift to a closed path"
    assert sum(src.read_text().count(message) for src in SRC.glob("*.py")) == 1
    assert message in ast.get_source_segment(text, defs["lift_class"])


# Valid arguments of every public entry of the package root that takes d or
# g: its functions, and the constructors and classmethods of CycInt,
# RingMatrix and BlockMat.  Endo takes no rank, and Endo.identity any
# integer rank (test_fixed_refusals).
def _valid_calls():
    import prymrep as p
    i1, z1 = p.RingMatrix.identity(5, 1), p.RingMatrix.zeros(5, 1, 1)
    phi = p.Endo.identity(2)
    return {
        "euler_phi": dict(d=5),
        "one": dict(d=5),
        "zeta_pow": dict(d=5, k=1),
        "decompose_delta": dict(b=p.RingMatrix(5, [[2]]), d=5, g=2),
        "check_member": dict(phi=phi, d=5),
        "deck_conjugation": dict(g=2),
        "eta": dict(phi=phi, d=5, g=2),
        "eta_chain": dict(phi=phi, d=5, g=2),
        "eta_fox": dict(phi=phi, d=5, g=2),
        "lift_class": dict(w=(2, 1, -2), d=5, g=2),
        "matrix_of": dict(spec=p.GenSpec("Ti", (1,), (2,)), d=5, g=2),
        "evaluate": dict(word=p.parse("G1(1)^2 * T * Ti(-1; 3)"), d=5, g=2),
        "parse_matrix": dict(text="1, z ; 0, 1", d=5),
        "CycInt": dict(d=5, coeffs=(1, 2, 0, 0)),
        "CycInt.from_poly": dict(d=5, coeffs=(1,) * 12),
        "CycInt.from_int": dict(d=5, n=3),
        "CycInt.from_literal": dict(d=5, text="1 + z^7"),
        "RingMatrix": dict(d=5, rows=[[1, p.zeta_pow(5, 1)]]),
        "RingMatrix.identity": dict(d=5, n=2),
        "RingMatrix.zeros": dict(d=5, rows=1, cols=2),
        "BlockMat": dict(mat=p.RingMatrix.identity(5, 2), g=2),
        "BlockMat.identity": dict(d=5, g=2),
        "BlockMat.from_blocks": dict(g=2, upper_left=i1, upper_right=z1,
                                     lower_left=z1, lower_right=i1),
    }


def _entries_taking_d_or_g():
    """{name: callable} of the public entries that take d or g."""
    import prymrep

    def takes_d_or_g(fn):
        return bool({"d", "g"} & set(inspect.signature(fn).parameters))

    out = {name: fn for name, fn in vars(prymrep).items()
           if callable(fn) and not inspect.isclass(fn) and takes_d_or_g(fn)}
    for cls in (prymrep.CycInt, prymrep.RingMatrix, prymrep.BlockMat):
        if takes_d_or_g(cls):
            out[cls.__name__] = cls
        for name, attr in vars(cls).items():
            if (isinstance(attr, classmethod) and not name.startswith("_")
                    and takes_d_or_g(getattr(cls, name))):
                out[f"{cls.__name__}.{name}"] = getattr(cls, name)
    return out


BAD = {"d": (0, 1, -3, 2.0, True, MAX_D + 1), "g": (0, 1, -2, 3.0, True)}

# The dimension and exponent arguments of the entries above, which the
# integer rule (and, for a dimension, the shape rule) also covers.
BAD_ARGS = {("RingMatrix.identity", "n"): (0, -1, 2.0, True, "2"),
            ("RingMatrix.zeros", "rows"): (0, 2.0, True),
            ("RingMatrix.zeros", "cols"): (-1, 1.5, True),
            ("zeta_pow", "k"): (1.5, True, "1")}


def _refusal_problem(call, fn, kwargs):
    """None if fn(**kwargs) raises a ValueError whose text is a registered
    rule message, else a line that names the call and what went wrong."""
    rules = [re.compile(pattern) for _, pattern in INPUT_RULES]
    try:
        out = fn(**kwargs)
    except ValueError as exc:
        if not any(rule.fullmatch(str(exc)) for rule in rules):
            return f"{call}: unregistered {exc}"
    except Exception as exc:
        return f"{call}: {type(exc).__name__}: {exc}"
    else:
        return f"{call} returned {out!r}"
    return None


def test_public_entries_refuse_bad_d_and_g():
    # every public entry that takes d or g refuses each value of BAD with a
    # ValueError whose text is a registered rule message, before any other
    # error can arise, and never returns a result; each valid call works
    entries, valid = _entries_taking_d_or_g(), _valid_calls()
    assert sorted(entries) == sorted(valid)
    problems = []
    for name, fn in entries.items():
        fn(**valid[name])
        for param in {"d", "g"} & set(inspect.signature(fn).parameters):
            for bad in BAD[param]:
                problems.append(_refusal_problem(
                    f"{name}({param}={bad!r})", fn, {**valid[name], param: bad}))
    assert [p for p in problems if p] == []


def test_dimension_and_exponent_arguments_are_integers():
    # RingMatrix.identity(5, 2.0) and zeta_pow(5, 1.5) raised a bare
    # TypeError, and zeta_pow(5, True) returned zeta
    entries, valid = _entries_taking_d_or_g(), _valid_calls()
    problems = [_refusal_problem(f"{name}({param}={bad!r})", entries[name],
                                 {**valid[name], param: bad})
                for (name, param), bads in BAD_ARGS.items() for bad in bads]
    assert [p for p in problems if p] == []


def _word_text(word):
    """word as free-word text, a letter that is no int written as it prints."""
    return " ".join(f"x{abs(s)}^{1 if s > 0 else -1}" if type(s) is int else f"x{s}"
                    for s in word)


# Every public entry of foxcover that takes a free word, as letters or as
# text, called at rank 2 on the module.
_WORD_ENTRIES = {
    "Endo(images)": lambda p, w: p.Endo((w, (2,)), ((1,), (2,))),
    "Endo(inverse_images)": lambda p, w: p.Endo(((1,), (2,)), ((1,), w)),
    "Endo.apply": lambda p, w: p.Endo.identity(2).apply(w),
    "lift_class": lambda p, w: p.lift_class(w, 5, 2),
    "parse_free_word": lambda p, w: p.parse_free_word(_word_text(w), 2),
    "parse_endo_images": lambda p, w: p.parse_endo_images("x1 -> " + _word_text(w), 2),
}


def test_free_word_entries_refuse_bad_letters():
    # every public entry that takes a free word refuses each bad letter of
    # _LETTER_PROBES with a registered rule message; each valid word works
    from prymrep import foxcover
    from test_foxcover import _LETTER_PROBES

    problems = []
    for name, call in _WORD_ENTRIES.items():
        call(foxcover, (2, 1, -2))
        for word, _ in _LETTER_PROBES:
            problems.append(_refusal_problem(f"{name}({word!r})", call, dict(p=foxcover, w=word)))
    assert [p for p in problems if p] == []


@pytest.mark.parametrize("call,message", [
    # b.d == d read 2 == 2.0 as true, and the word G1(1) came back
    (lambda p: p.decompose_delta(p.RingMatrix.identity(2, 1), 2.0, 2),
     "moduli must be integers"),
    # an entry of another modulus gets the text of the rule it breaks
    (lambda p: p.RingMatrix(5, [[p.zeta_pow(3, 1)]]), "modulus mismatch: d=5 vs d=3"),
    # from_blocks zipped the rows of a d = 3 block into a d = 5 matrix, and
    # called a 1x2 block's matrix 2x3
    (lambda p: p.BlockMat.from_blocks(2, p.RingMatrix.identity(5, 1), p.RingMatrix.identity(3, 1),
                                      p.RingMatrix.zeros(5, 1, 1), p.RingMatrix.identity(5, 1)),
     "modulus mismatch: d=5 vs d=3"),
    (lambda p: p.BlockMat.from_blocks(2, p.RingMatrix.identity(5, 1), p.RingMatrix.zeros(5, 1, 2),
                                      p.RingMatrix.zeros(5, 1, 1), p.RingMatrix.identity(5, 1)),
     "block is 1x2, expected 1x1 for genus 2"),
    # Endo.identity(2.0) raised a bare TypeError from range, and
    # Endo.identity(True) returned a rank-1 Endo
    (lambda p: p.Endo.identity(2.0), "ranks must be integers"),
    (lambda p: p.Endo.identity(True), "ranks must be integers"),
    # a dividend that is neither a CycInt nor an int coerced to None, and
    # divide_exact raised AttributeError on None.coeffs
    (lambda p: p.cyclotomic.divide_exact("x", p.one(5)),
     "polynomial coefficients must be integers"),
    (lambda p: p.cyclotomic.divide_exact(1.5, p.one(5)),
     "polynomial coefficients must be integers"),
    (lambda p: p.cyclotomic.divide_exact(None, p.one(5)),
     "polynomial coefficients must be integers"),
    # a divisor that is not a CycInt raised AttributeError on its _coerce
    (lambda p: p.cyclotomic.divide_exact(1, 2), "divide_exact requires a CycInt divisor"),
    (lambda p: p.cyclotomic.divide_exact(1, None), "divide_exact requires a CycInt divisor"),
    (lambda p: p.cyclotomic.divide_exact(1, "x"), "divide_exact requires a CycInt divisor"),
    # ** read True as 1 and returned the base, and RingMatrix ** 1.5 raised a
    # bare TypeError from bin(); zeta_pow and word exponents already refused them
    (lambda p: p.zeta_pow(5, 1) ** True, "exponents must be integers"),
    (lambda p: p.RingMatrix.identity(5, 2) ** True, "exponents must be integers"),
    (lambda p: p.RingMatrix.identity(5, 2) ** 1.5, "exponents must be integers"),
    (lambda p: p.RingMatrix.identity(5, 2) ** "2", "exponents must be integers"),
    (lambda p: p.BlockMat.identity(5, 2) ** True, "exponents must be integers"),
    (lambda p: p.BlockMat.identity(5, 2) ** 1.5, "exponents must be integers"),
    (lambda p: p.BlockMat.identity(5, 2) ** "2", "exponents must be integers"),
    # the ring-scalar rule, CycInt._coerce, states the modulus rule first, so
    # a scalar of another modulus at d = 1 breaks that rule; then the modulus
    # of a CycInt, then the integer rule of any other scalar
    (lambda p: p.generators.elem_Tij(3, 1, 1, 2, p.zeta_pow(5, 1)), "modulus d must be >= 2"),
    (lambda p: p.RingMatrix(1, [[p.zeta_pow(5, 1)]]), "modulus d must be >= 2"),
    (lambda p: p.RingMatrix(1, []), "modulus d must be >= 2"),
    (lambda p: p.RingMatrix(5, [[1.5]]), "polynomial coefficients must be integers"),
    (lambda p: p.RingMatrix(5, [[True]]), "polynomial coefficients must be integers"),
    (lambda p: p.zeta_pow(5, 1) + True, "polynomial coefficients must be integers"),
    (lambda p: p.generators.elem_Ti(3, 5, 1, 1.5), "Ti requires a ring argument"),
    (lambda p: p.RingMatrix(3, [[p.zeta_pow(5, 1)]]), "modulus mismatch: d=3 vs d=5"),
    (lambda p: p.BlockMat.identity(5, 2) * p.zeta_pow(3, 1), "modulus mismatch: d=5 vs d=3"),
], ids=["decompose_delta-float-d", "RingMatrix-entry-of-another-modulus",
        "from_blocks-block-of-another-modulus", "from_blocks-block-of-the-wrong-shape",
        "Endo.identity-float-rank", "Endo.identity-bool-rank", "divide_exact-str-dividend",
        "divide_exact-float-dividend", "divide_exact-None-dividend", "divide_exact-int-divisor",
        "divide_exact-None-divisor", "divide_exact-str-divisor", "CycInt-pow-bool",
        "RingMatrix-pow-bool", "RingMatrix-pow-float", "RingMatrix-pow-str", "BlockMat-pow-bool",
        "BlockMat-pow-float", "BlockMat-pow-str", "elem_Tij-d-1-scalar-of-d-5",
        "RingMatrix-d-1-entry-of-d-5", "RingMatrix-d-1-no-rows", "RingMatrix-float-entry",
        "RingMatrix-bool-entry", "CycInt-plus-bool", "elem_Ti-float-scalar",
        "RingMatrix-d-3-entry-of-d-5", "BlockMat-times-scalar-of-another-modulus"])
def test_fixed_refusals(call, message):
    import prymrep
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(prymrep)


def _cache_typed(expr):
    """Whether expr, a decorator or the callee of a wrapping call, is a
    functools cache (cache or lru_cache, bare or called) that passes
    typed=True; None if it is no cache."""
    call = expr if isinstance(expr, ast.Call) else None
    if ast.unparse(call.func if call else expr).rpartition(".")[2] not in ("cache", "lru_cache"):
        return None
    typed = [k.value for k in call.keywords if k.arg == "typed"] + call.args[1:2] if call else []
    return any(isinstance(v, ast.Constant) and v.value is True for v in typed)


def _cache_sites(module, tree):
    """(name, parameter count, typed) of each functools cache in tree: a
    decorated def, or a cache called on a function or class, as in
    lru_cache(...)(fn) or cache(fn), whose parameters are read from the
    module's object of that name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            count = len(a.posonlyargs + a.args + a.kwonlyargs) + bool(a.vararg) + bool(a.kwarg)
            for dec in node.decorator_list:
                if _cache_typed(dec) is not None:
                    yield node.name, count, _cache_typed(dec)
        elif (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name)
              and callable(getattr(module, node.args[0].id, None))
              and _cache_typed(node.func) is not None):
            target = node.args[0].id
            count = len(inspect.signature(getattr(module, target)).parameters)
            yield target, count, _cache_typed(node.func)


def test_multi_parameter_caches_are_typed():
    # a cache keyed by equal values hands 2.0 or True the entry kept for 2:
    # a two-parameter cache of identity rows without typed=True made
    # RingMatrix.identity(2.0, 1) return a matrix with d = 2.0 once (2, 1)
    # was kept.  A one-parameter cache is safe, as CPython keys a bare int by
    # itself and wraps a float or a bool, so the two never match
    sites, untyped = set(), []
    for src in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"prymrep.{src.stem}")
        for name, count, typed in _cache_sites(module, ast.parse(src.read_text())):
            sites.add(f"{src.stem}.{name}")
            if count > 1 and not typed:
                untyped.append(f"{src.name} {name}: {count} parameters, no typed=True")
    assert {"cyclotomic.euler_phi", "decompose.GenSpec", "wordlang._factor"} <= sites
    assert untyped == []


def test_refusals_hold_after_warm_caches():
    # each call below is refused after the caches on its route have kept the
    # entries of the int modulus 2, whatever ran before this test
    import prymrep as p
    b, g1 = p.RingMatrix(2, [[1]]), p.parse("G1(1)")
    p.RingMatrix.identity(2, 1), p.BlockMat.identity(2, 2)
    p.decompose_delta(b, 2, 2), p.evaluate(g1, 2, 2)
    for call in (lambda: p.RingMatrix.identity(2.0, 1), lambda: p.RingMatrix.identity(True, 1),
                 lambda: p.BlockMat.identity(2.0, 2), lambda: p.decompose_delta(b, 2.0, 2),
                 lambda: p.evaluate(g1, 2.0, 2), lambda: p.evaluate(g1, True, 2)):
        with pytest.raises(ValueError, match="^moduli must be integers$"):
            call()

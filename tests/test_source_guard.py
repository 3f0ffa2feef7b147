"""Source guards: machinery that exists once stays in one place.

exterior._signed_perms is the one table behind every antisymmetric index
operation; no other module may enumerate permutations or bring back the
hand-rolled sign and antisymmetrizer helpers.  connection._rk4 is the one
RK4 stepper, and every integrator steps through it; exp_map and
geodesic_with_frame shoot through connection._shoot, which steps
_geodesic_steps without storing a path and with no right-hand side of its
own, and holds the one zero-velocity and domain rule.  Newton shooting has
one tolerance, and no connection function takes a tol.  Christoffel
symbols meet a velocity only in connection._gamma_dot, with no
three-operand einsum.  The loop-jet fit has two ways in, akivis_check
and fit_alpha, both over the one function connection._normal_loop, and
no full-fit entry point or report class comes back; one akivis_check
shoots all its scales in one _normal_loop call, and _fit_jets only
combines the rows it is given.  The lam difference of the fit is written
once, in connection._lam, so fit_alpha and _fit_jets cannot fork.  The
batch products
gather signed permutations: octonion.mul_cols, the one kernel, reads its
terms from the basis table derived from STRUCTURE_CYCLES, the octonion
suite runs every product through it in columns, and clifford_mul is one
dense gather with no np.add.at loop.  The octonion suite's sample and the
clifford suite's trial rows read the library functions they check, on
stacked rows, and cli.py writes none of that math out again.
Only exterior knows how a form is stored: no other module imports or
reads its private names, and deform.sigma is written with interior,
wedge and form arithmetic.  Only exterior and cartan touch the dense
Levi-Civita symbol.  exterior.wedge
and exterior.interior work on sorted components through the shuffle
table, with no dense outer product.  A G2-structure is passed as its
G2MetricData alone, never beside a phi it could disagree with, and the
2-form operator R is defined once, as star(phi ^ .).  split3 is the
closed form through bilinear_7form, with no least-squares solve, and
octonion.associator is the one associator written out.  An octonion, or
a spinor, is an (8,) coefficient row or a (..., 8) stack of rows: no
module but octonion names the Octonion class, which octonion.mul alone
tests for, and no spinor class or second conjugate comes back.  Charts and
fields are built in code: no chart or field config loader, grid chart or
per-row Levi-Civita chart comes back.  The Hodge star
and the form metric share exterior._raised, the one raise of a form, and
it raises through exterior.pullback, the one dense pullback, which every
3-form pullback calls too: no module names tensordot or writes a full
pullback as an einsum, and g2linear's own 3-form pullback does not come
back.  Every check row of the CLI is built by RunConfig.row from the
tolerances its suite declares, save the one row of fixed tolerance.  The field
derivatives take every coordinate axis at once: no field function takes a
direction vector, a Christoffel array or a torsion, none has a private
twin that takes more, a PhiField holds one memo, and
torsion_law_residual runs no loop.  The torsion law reads the deformed
field it is given: it builds no PhiField, and no second builder of a
sigma_V-deformed field comes back.  The count of
parameters with defaults may not rise above OPTION_BUDGET.
Every public module-level function and class of the package serves a
claim: another part of the package names it, it is a registered suite,
or the benchmark under perfbench/ names it.  A public name that only
tests call moves into the test that reads it or goes.  The same holds
one level down, for the public methods and properties of a class: a
classmethod serves when Class.name is read, any other member when .name
is read outside its class body, in the package, the benchmark or
README's Quick tour.  The one way around the rule is EXEMPT, which gives
the reason for each name, and an exemption goes stale, and fails, once
its name gains a caller.  No module keeps a second list of its public
names in __all__.
"""

import ast
import inspect
import re
from pathlib import Path

import g2lab

SRC = Path(g2lab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

OPTION_BUDGET = 19

# public names with no caller yet, each kept for the claim that will call it
EXEMPT = {
    "commutator": "S^7 torsion: the bracket of the left frame p e_a is "
                  "the commutator of the product deformed by p-bar",
    "right_matrix": "S^7 torsion: the right frame e_a p and its bracket",
    "j_inverse": "the spinor dictionary at field level: the spinor "
                 "A . xi of an octonion field A",
    "reference_structure": "the spinor dictionary at field level: phi of "
                           "a sigma field that moves in several directions",
}


def test_only_exterior_enumerates_permutations():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if path.name != "exterior.py" and re.search(
                r"import[^\n]*\bpermutations\b", text):
            offenders.append(f"{path.name}: imports permutations")
        for name in ("_perm_sign", "_alt4", "_alt3_last"):
            if name in text:
                offenders.append(f"{path.name}: {name}")
    assert offenders == []


def test_one_rk4_stepper(monkeypatch):
    import numpy as np
    from g2lab import connection as cn
    # a weighted sum a + 2 * b + 2 * c + d is the RK4 combination
    combo = re.compile(r"\w+\s*\+\s*2\s*\*\s*\w+\s*\+\s*2\s*\*\s*\w+"
                       r"\s*\+\s*\w+")
    found = [(path.name, m.group()) for path in sorted(SRC.glob("*.py"))
             for m in combo.finditer(path.read_text())]
    assert found == [("connection.py", "k1 + 2 * k2 + 2 * k3 + k4")]
    real = cn._rk4
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(cn, "_rk4", counted)
    chart = cn.flat_chart(2)
    path = cn.integrate_geodesic(chart, np.zeros(2), np.ones(2), 1.0, 0.5)
    cn.geodesic_with_frame(chart, np.zeros(2), np.ones(2), 1.0, 0.5)
    cn.parallel_transport(chart, path, np.ones(2), 0.5)
    cn.exp_map(chart, np.zeros(2), np.ones(2), 0.5)
    assert len(calls) == 4


def test_exp_map_keeps_no_path():
    from g2lab import connection as cn
    text = (SRC / "connection.py").read_text()
    assert "_BLOCK_ROWS" not in text and "GeodesicPath" not in text
    tree = ast.parse(inspect.getsource(cn.exp_map))
    assert "_shoot" in {n.id for n in ast.walk(tree)
                        if isinstance(n, ast.Name)}
    tree = ast.parse(inspect.getsource(cn._shoot))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "integrate_geodesic" not in names
    assert "_geodesic_steps" in names


def test_one_shooting_path():
    from g2lab import connection as cn
    text = (SRC / "connection.py").read_text()
    for name in ("_SHOT_TOL", "_exp_with_frame"):
        assert name not in text
    tree = ast.parse(text)
    tols = [t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Name) and "TOL" in t.id]
    assert tols == ["_NEWTON_TOL"]
    takes_tol = [node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and "tol" in {a.arg for a in node.args.posonlyargs
                               + node.args.args + node.args.kwonlyargs}]
    assert takes_tol == []
    # the zero-velocity mask of a shot is computed in _shoot alone
    assert text.count("!= 0.0") == 1
    assert "!= 0.0" in inspect.getsource(cn._shoot)


def test_symbols_meet_velocities_only_in_gamma_dot():
    import textwrap
    from g2lab import connection as cn
    text = (SRC / "connection.py").read_text()
    for spec in ('"...ijk,...j,...k', '"...ijk,...j,...kc'):
        assert spec not in text
    for fn in (cn._geodesic_steps, cn.parallel_transport):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        attrs = {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
        assert "einsum" not in attrs
        # every evaluation of the symbols is an argument of _gamma_dot
        dots = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "_gamma_dot"]
        inside = {id(a) for d in dots for a in d.args}
        gammas = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Name) and n.func.id == "gamma"]
        assert dots and gammas
        assert all(id(g) in inside for g in gammas)
    tree = ast.parse(inspect.getsource(cn._gamma_dot))
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "matmul" in attrs and "einsum" not in attrs
    # the frame rides on the geodesic's own right-hand side
    tree = ast.parse(inspect.getsource(cn.geodesic_with_frame))
    assert "_shoot" in {n.id for n in ast.walk(tree)
                        if isinstance(n, ast.Name)}
    tree = ast.parse(inspect.getsource(cn._shoot))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    defs = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_geodesic_steps" in names and "rhs" not in defs


def test_one_lam_difference():
    found = [(path.name, path.read_text().count(
        "(t[0] - t[1] - t[2] + t[3])")) for path in sorted(SRC.glob("*.py"))]
    assert [f for f in found if f[1]] == [("connection.py", 1)]
    from g2lab import connection as cn
    assert "_lam(" in inspect.getsource(cn.fit_alpha)
    assert "_lam(" in inspect.getsource(cn._fit_jets)


def test_one_loop_fit():
    # the full fit and its report, which no suite ran, and the normal
    # loop as a class; split so that this file does not name them
    gone = ("fit_fundamental" + "_tensors", "LoopExpansion" + "Report",
            "_Normal" + "Loop")
    root = Path(__file__).resolve().parents[1]
    for path in sorted(SRC.glob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")) + [root / "README.md"]:
        text = path.read_text()
        for name in gone:
            assert name not in text, f"{path.name}: {name}"
    # _fit_jets combines the rows it is given: it calls no shooting
    # function, and none passed in as an argument
    from g2lab import connection as cn
    tree = ast.parse(inspect.getsource(cn._fit_jets))
    calls = {n.func.id for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    params = {a.arg for a in tree.body[0].args.args}
    assert not calls & (params | {"_normal_loop", "exp_map", "exp_inverse",
                                  "geodesic_with_frame", "loop_product"})


def test_mul_cols_gathers_from_the_basis_table():
    import numpy as np
    from g2lab import octonion as oc
    tree = ast.parse(inspect.getsource(oc.mul_cols))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "MUL_TENSOR" not in names and "einsum" not in attrs
    assert "_GATHER_TERMS" in names
    # the terms come from _BASIS_TABLE, with no second hand-written list:
    # the builder's only numbers are the dimension 8 and the sign test's 0
    builder = ast.parse(inspect.getsource(oc._gather_terms))
    assert "_BASIS_TABLE" in {n.id for n in ast.walk(builder)
                              if isinstance(n, ast.Name)}
    assert {n.value for n in ast.walk(builder)
            if isinstance(n, ast.Constant)
            and isinstance(n.value, int)} <= {0, 8}
    table = oc.basis_table()
    for k, terms in enumerate(oc._GATHER_TERMS):
        assert [i for i, _, _ in terms] == list(range(8))
        for i, j, accumulate in terms:
            sign = 1 if accumulate is np.add else -1
            assert table[i][j] == (k, sign)


def test_octonion_suite_runs_its_products_in_columns(monkeypatch):
    from g2lab import cli
    from g2lab import octonion as oc
    real = oc.mul_cols
    widths = []

    def counted(a, b):
        widths.append(a.shape[1])
        return real(a, b)

    monkeypatch.setattr(oc, "mul_cols", counted)
    report = cli.run_suite("octonion", cli.RunConfig(seed=5, trials=8193))
    assert report["pass"] is True
    # the general pair's pass over the three blocks, 7 products a block,
    # then the imaginary triple's, 13 a block
    assert widths == ([4096] * 7 + [4096] * 7 + [1] * 7
                      + [4096] * 13 + [4096] * 13 + [1] * 13)


def test_clifford_has_no_add_at():
    text = (SRC / "clifford.py").read_text()
    assert ".add.at" not in text and "np.nonzero" not in text


def _reached_from(name: str) -> list:
    """cli's function name and every cli function it reaches through the
    names it reads, as AST nodes."""
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    todo, seen = [name], {}
    while todo:
        fn = todo.pop()
        if fn not in seen:
            seen[fn] = functions[fn]
            todo += sorted(_names_read(seen[fn]) & set(functions))
    return list(seen.values())


def test_batched_rows_read_the_library():
    wanted = {"suite_octonion": {"inverse", "conj", "exponential", "power",
                                 "left_matrix", "mul"},
              "suite_clifford": {"clifford_mul", "reversion", "vector_inner",
                                 "enveloping_residual", "j_map",
                                 "clifford_action", "deformed_mul",
                                 "left_matrix"}}
    for suite, names in wanted.items():
        reached = _reached_from(suite)
        assert names <= set().union(*map(_names_read, reached)), suite
        # no second power or reversion sign beside the rows; the exterior
        # suite's graded signs (-1)^(pq) are claims of its own
        code = "\n".join(map(ast.unparse, reached))
        assert "arctan2" not in code and "(-1.0) **" not in code, suite
    assert "MUL_TENSOR" not in (SRC / "cli.py").read_text()


def test_g2linear_has_no_dense_symbol():
    from g2lab import g2linear as g2
    for name in ("eps7", "_TRIPLES", "_vec35"):
        assert not hasattr(g2, name)
    users = sorted(path.name for path in SRC.glob("*.py")
                   if "levi_civita_symbol" in path.read_text())
    assert users == ["cartan.py", "exterior.py"]


def test_wedge_builds_no_dense_array():
    import tracemalloc
    import numpy as np
    from g2lab import exterior as ext
    from g2lab.g2linear import psi0
    text = inspect.getsource(ext.wedge)
    assert "multiply.outer" not in text and "antisymmetrize" not in text
    psi = psi0()
    x = np.random.default_rng(0).standard_normal(7)
    tracemalloc.start()
    try:
        ext.wedge(psi, ext.interior(x, psi)).max_abs()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense 7-form would be 7^7 doubles, 6.6 MB
    assert peak < 64 * 1024


def test_only_exterior_knows_how_a_form_is_stored():
    from g2lab import deform as df
    from g2lab import exterior as ext
    flag = "_skip" + "_antisym"
    for path in sorted(SRC.glob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")):
        assert flag not in path.read_text(), path.name

    def private(names):
        return {n for n in names if n.startswith("_")
                and not n.startswith("__")}

    hidden = private(vars(ext)) | private(vars(ext.AltTensor))
    assert {"_scatter", "_slot_table", "_from_vals"} <= hidden
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exterior.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").endswith("exterior"):
                offenders += [f"{path.name}: imports {a.name}"
                              for a in node.names if a.name in hidden]
            elif isinstance(node, ast.Attribute) and node.attr in hidden:
                offenders.append(f"{path.name}: reads {node.attr}")
    assert offenders == []
    tree = ast.parse(inspect.getsource(df.sigma))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "einsum" not in names | attrs
    assert {"interior", "wedge"} <= names


def test_one_g2_structure_argument():
    from g2lab import clifford as cl
    from g2lab import deform as df
    from g2lab import g2linear as g2
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args.posonlyargs + node.args.args \
                + node.args.kwonlyargs
            names = {a.arg for a in args}
            typed = any(a.annotation is not None
                        and "G2MetricData" in ast.unparse(a.annotation)
                        for a in args)
            if typed and names & {"phi", "base_phi"}:
                offenders.append(f"{path.name}: {node.name}")
    assert offenders == []
    assert not hasattr(df, "DeformedProduct")
    assert not hasattr(cl, "sigma_from_spinor")
    for fn in (g2.r_operator, g2.split2, g2.r_operator_matrix):
        text = inspect.getsource(fn)
        assert "einsum" not in text, fn.__name__
    names = {n.id for n in ast.walk(ast.parse(inspect.getsource(g2.r_operator)))
             if isinstance(n, ast.Name)}
    assert {"hodge", "wedge"} <= names


def test_split3_is_closed_form():
    from g2lab import cartan as cs
    from g2lab import g2linear as g2
    tree = ast.parse(inspect.getsource(g2.split3))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "lstsq" not in attrs and "bilinear_7form" in names
    assert not hasattr(g2, "_sym_basis") and not hasattr(cs, "cs_chart")
    # nor does the chart and field config layer, which no suite read
    gone = ("_sym_basis", "cs_chart", "chart_from_config", "grid_chart_from",
            "GridGamma", "levi_civita_chart", "field_from_config",
            "BUILTIN_CHARTS", "FIELD_KINDS")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for name in gone:
            assert name not in text, f"{path.name}: {name}"


def test_one_associator():
    # (a b) c - a (b c) written out with any product function
    arg = r"[^,()]+(?:\([^()]*\))?"
    assoc = re.compile(
        rf"(\w*mul\w*)\(\s*\1\(\s*({arg}),\s*({arg})\),\s*({arg})\)\s*-\s*"
        rf"\1\(\s*\2,\s*\1\(\s*\3,\s*\4\)\)")
    found = [(path.name, m.group()) for path in sorted(SRC.glob("*.py"))
             for m in assoc.finditer(path.read_text())]
    assert found == [("octonion.py", "_mul_raw(_mul_raw(a, b), c)"
                      " - _mul_raw(a, _mul_raw(b, c))")]


def test_one_octonion_type():
    # the spinor wrapper and deform's copy of conj; split so that this
    # file does not name them
    gone = ("Spinor" + "Point", "bundle" + "_conj")
    for path in sorted(SRC.glob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")) + [ROOT / "README.md"]:
        text = path.read_text()
        for name in gone:
            assert name not in text, f"{path.name}: {name}"
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = _names_read(tree) | {a.name for n in ast.walk(tree)
                                     if isinstance(n, ast.ImportFrom)
                                     for a in n.names}
        if path.name != "octonion.py" and "Octonion" in named:
            offenders.append(f"{path.name}: names Octonion")
        for top in tree.body:
            tests = [n for n in ast.walk(top) if isinstance(n, ast.Call)
                     and getattr(n.func, "id", None) == "isinstance"
                     and "Octonion" in _names_read(n)]
            where = (path.name, getattr(top, "name", None))
            if tests and where != ("octonion.py", "mul"):
                offenders.append(f"{path.name}:{top.lineno} tests Octonion")
    assert offenders == []
    from g2lab import octonion as oc
    assert "isinstance" in _names_read(ast.parse(inspect.getsource(oc.mul)))


def test_option_count_within_budget():
    options = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args.posonlyargs + node.args.args
                named = [a.arg for a in args[len(args)
                                             - len(node.args.defaults):]]
                named += [a.arg for a, d in zip(node.args.kwonlyargs,
                                                node.args.kw_defaults)
                          if d is not None]
                if named:
                    options.append((f"{path.name}:{node.lineno} "
                                    f"{getattr(node, 'name', 'lambda')}",
                                    named))
    count = sum(len(named) for _, named in options)
    # over budget, the message lists every function with its defaults
    assert count <= OPTION_BUDGET, (
        f"{count} options over the budget of {OPTION_BUDGET}:\n"
        + "\n".join(f"{where}({', '.join(named)})"
                     for where, named in options))


def test_one_raise_behind_hodge_and_form_inner():
    from g2lab import exterior as ext
    assert "_raise_all" not in (SRC / "exterior.py").read_text()
    for fn in (ext.hodge, ext.form_inner):
        tree = ast.parse(inspect.getsource(fn))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        attrs = {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
        assert "_raised" in names
        assert not {"tensordot", "factorial", "_contract_all"} & (names
                                                                  | attrs)


def test_one_dense_pullback():
    from g2lab import cli, deform as df, exterior as ext, field as fld
    from g2lab import g2linear as g2
    gone = "pullback" + "_3form"
    root = Path(__file__).resolve().parents[1]
    for path in sorted(SRC.glob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")) + [root / "README.md"]:
        assert gone not in path.read_text(), path.name
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if "tensordot" in _names_read(tree):
            offenders.append(f"{path.name}: tensordot")
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and "->" in node.value):
                continue
            first, *mats = node.value.split("->")[0].split(",")
            # every index of the first operand contracted with its own
            # matrix is a full pullback
            hit = sorted(c for m in mats if len(m) == 2 for c in m
                         if c in first)
            if first and len(mats) == len(first) and hit == sorted(first):
                offenders.append(f"{path.name}: einsum {node.value!r}")
    assert offenders == []
    for fn in (ext._raised, g2.random_positive_3form, cli.suite_g2linear,
               df.conjugation_pullback_residual, fld.pullback_warp_field):
        assert "pullback" in _names_read(ast.parse(
            inspect.getsource(fn))), fn.__name__


def test_rows_are_built_in_one_place():
    text = (SRC / "cli.py").read_text()
    assert "config.tol(" not in text and "_read" not in text
    tree = ast.parse(text)

    def is_check(node):
        return isinstance(node, ast.Call) and \
            isinstance(node.func, ast.Name) and node.func.id == "_check"

    callers = sorted((fn.name, ast.unparse(call.args[0]))
                     for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     for call in ast.walk(fn) if is_check(call))
    assert callers == [("row", "name"),
                       ("suite_akivis", "'cs_table_decreasing'")]
    assert sum(map(is_check, ast.walk(tree))) == 2


def test_field_derivatives_take_every_axis():
    import numpy as np
    from g2lab import field as fld
    params = {}
    offenders = []
    for node in ast.walk(ast.parse((SRC / "field.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args \
                + node.args.kwonlyargs
            params[node.name] = {a.arg for a in args}
            offenders += [f"{node.name}: {arg}" for arg in sorted(
                params[node.name] & {"direction", "gam", "torsion"})]
    # a private twin that takes more than its public function, such as a
    # Christoffel array threaded from one derivative to the next
    offenders += [f"_{name}: twin of {name}" for name, args in params.items()
                  if params.get(f"_{name}", args) - args]
    assert offenders == []
    # the metric data, Levi-Civita symbol and torsion share one memo
    field = fld.sigma_warp_field()
    fld.g2_torsion(field, np.zeros(7), 1e-3)
    assert sum(isinstance(v, dict) for v in vars(field).values()) == 1
    tree = ast.parse(inspect.getsource(fld.torsion_law_residual))
    assert not [n for n in ast.walk(tree)
                if isinstance(n, (ast.For, ast.comprehension))]


def test_torsion_law_reads_the_deformed_field_it_is_given(monkeypatch):
    import numpy as np
    from g2lab import field as fld
    # sigma_warp_field is the one builder of a sigma_V-deformed field, and
    # the law returns its one residual with no report dict beside it
    for path in sorted(SRC.glob("*.py")) + [ROOT / "README.md"]:
        text = path.read_text()
        for gone in ("sigma_deformed_field",
                     "torsion_transformation_residuals"):
            assert gone not in text, f"{path.name}: {gone}"
    cf, sw = fld.constant_field(), fld.sigma_warp_field()
    built = []
    real_init = fld.PhiField.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(fld.PhiField, "__init__", init)
    fld.torsion_law_residual(cf, sw, sw.v_at, np.zeros(7), 1e-3)
    assert built == []


def _names_read(tree, skip=None, strings=False) -> set:
    """Every Name and Attribute in tree outside the node skip, and with
    strings set also every string constant that is an identifier."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_serves_a_claim():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    bench = sorted(ROOT.glob("perfbench/*.py"))
    assert bench, "perfbench/ not found beside tests/"
    # perfbench names the functions it traces in strings, too
    benched = set().union(*(_names_read(ast.parse(path.read_text()),
                                        strings=True) for path in bench))

    def serves(node):
        suite = any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                    and d.func.id == "_suite" for d in node.decorator_list)
        return suite or node.name in benched or any(
            node.name in _names_read(tree, skip=node) for tree in trees)

    unserved = {node.name for tree in trees for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and not serves(node)}
    exempt = {name for name in EXEMPT if "." not in name}
    assert sorted(unserved - exempt) == [], "no claim uses these"
    # an exempt name that gained a caller, or went, leaves the table
    assert sorted(exempt - unserved) == [], "stale exemptions"


def _attributes_read(tree, skip=None) -> set:
    """(owner, attr) for every attribute read in tree outside the node
    skip; owner is the name or attribute it is read from, else None."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            owner = node.value
            found.add((getattr(owner, "id", getattr(owner, "attr", None)),
                       node.attr))
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_member_serves_a_claim():
    src = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    tour = (ROOT / "README.md").read_text().split("## Quick tour", 1)[1]
    outside = [ast.parse(path.read_text())
               for path in sorted(ROOT.glob("perfbench/*.py"))] + [
        ast.parse(re.search(r"```python\n(.*?)```", tour, re.S).group(1))]
    read_outside = set().union(*map(_attributes_read, outside))
    read_anywhere = read_outside.union(*map(_attributes_read, src))
    unserved = set()
    for cls in (node for tree in src for node in tree.body
                if isinstance(node, ast.ClassDef)):
        read_elsewhere = {attr for _, attr in read_outside.union(
            *(_attributes_read(tree, skip=cls) for tree in src))}
        for node in cls.body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("_"):
                continue
            if "classmethod" in map(ast.unparse, node.decorator_list):
                served = (cls.name, node.name) in read_anywhere
            else:
                served = node.name in read_elsewhere
            if not served:
                unserved.add(f"{cls.name}.{node.name}")
    exempt = {name for name in EXEMPT if "." in name}
    assert sorted(unserved - exempt) == [], "no claim reads these"
    assert sorted(exempt - unserved) == [], "stale exemptions"


def test_no_second_list_of_public_names():
    for path in sorted(SRC.glob("*.py")):
        assert "__all__" not in _names_read(ast.parse(path.read_text())), \
            path.name
    # the cartan family record, whose fields only a test read; split so
    # that this file does not name it
    gone = "CsFamily" + "Point"
    for path in sorted(SRC.glob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")) + [ROOT / "README.md"]:
        assert gone not in path.read_text(), path.name

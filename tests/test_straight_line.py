"""The straight-line float forms of the chart bodies, against the bodies.

Every form the float entry points call (``diskmodel._chart_form``,
``subdivision._psi_form``, ``instances._edge_form``) is compared with its
body run on FLOAT_OPS, at n = 0..3 and in every variant: the same bits, or
the same exception type and message.  The draws hold poles whose tails are
+0.0 or -0.0, chart slots at the walls 1/3 and 2/3, at the blend-band ends
1/6 and 5/6 and at phi's target walls, each also up to 8 ulps away, and
times outside [0,1].
"""

import dis
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop import instances, smoothfn, subdivision
from difftop.diskmodel import _Q, _chart_form, _retract, _section, _suspend
from difftop.instances import _edge_form, _edge_position, _section_slot
from difftop.smoothfn import (ARRAY_OPS, FLOAT_OPS, TRACE_OPS, _blend_inverse, lambda_fn,
                              straight_line, xi, xi_inv)
from difftop.subdivision import _psi, _psi_form, _psi_inv

F = FLOAT_OPS

# chart parameters where the bodies change branch: phi's slab walls 1/3 and
# 2/3, the blend-band ends 1/6 and 5/6, the target walls b/3 and 1 - b/3 at
# b = 1/3 and 2/3, and the ends of [0,1]
SPECIAL = [0.0, 1 / 9, 1 / 6, 2 / 9, 1 / 3, 1 / 2, 2 / 3, 7 / 9, 5 / 6, 8 / 9, 1.0]
# times and cube coordinates outside [0,1], with -0.0 beside them
OUT_OF_RANGE = [-0.0, -5e-324, -1e-9, 1.0 + 2 ** -52, 1.5, math.nan, math.inf]


@st.composite
def params(draw):
    """A chart parameter, special or uniform, up to 8 ulps off, as drawn or through lambda."""
    v = draw(st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0)))
    toward = draw(st.sampled_from([-1.0, 2.0]))
    for _ in range(draw(st.integers(0, 8))):
        v = math.nextafter(v, toward)
    return lambda_fn(v) if draw(st.booleans()) else v


@st.composite
def disk_floats(draw, n):
    """The n + 1 coordinates of a point of disk^n through Q's body; the tail
    after a random slot is set to zeros of random signs (a pole)."""
    x = _Q([draw(params()) for _ in range(n)], F)
    if draw(st.booleans()):
        for i in range(draw(st.integers(1, n + 1)), n + 1):
            x[i] = draw(st.sampled_from([0.0, -0.0]))
    return x


times = st.one_of(params(), st.sampled_from(OUT_OF_RANGE))
ends = st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2)
raw = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


def _forms():
    """(id, compiled form, body on FLOAT_OPS, strategy of its float arguments,
    the callables the form takes after them)."""
    for n in range(4):
        for chart, ref, args in [
            ("q", lambda x, n=n: x[:n] + _suspend(x[n], x[n + 1], F),
             st.tuples(disk_floats(n), times).map(lambda a: a[0] + [a[1]])),
            ("Q", lambda x: _Q(x, F), st.lists(params() | st.sampled_from(OUT_OF_RANGE),
                                               min_size=n, max_size=n)),
            ("section", lambda x, n=n: _section(n, x, F), disk_floats(n)),
            ("retract", lambda x: _retract(x, F), disk_floats(n + 1)),
        ]:
            dim = n + 1 if chart == "retract" else n
            yield f"{chart} {dim}", lambda c=chart, d=dim: _chart_form(c, d), ref, args, ()
        for wrinkle in (True, False):
            yield (f"psi {n} {wrinkle}", lambda n=n, w=wrinkle: _psi_form(n, False, w),
                   lambda x, n=n, w=wrinkle: _psi(n, _section(n + 1, x, F), F, xi if w else None),
                   disk_floats(n + 1), (xi,))
            yield (f"psi_inv {n} {wrinkle}", lambda n=n, w=wrinkle: _psi_form(n, True, w),
                   lambda x, n=n, w=wrinkle: _psi_inv(n, _section(n, x[:-1], F), x[-1], F,
                                                      xi_inv if w else None),
                   st.tuples(disk_floats(n), times).map(lambda a: a[0] + [a[1]]), (xi_inv,))
    for dim in (1, 2):
        yield (f"chain_position {dim}", lambda d=dim: _edge_form(d),
               lambda x, d=dim: _edge_position(d, x[:-2], *x[-2:], F, _section_slot),
               st.tuples(disk_floats(dim) | st.lists(raw, min_size=dim + 1, max_size=dim + 1),
                         ends).map(lambda a: a[0] + a[1]), (_section_slot,))


FORMS = list(_forms())


def _bits(value):
    """value's floats as hex, nested as the value is; a tuple counts as a list."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return float(value).hex()


def _outcome(fn):
    try:
        return "value", _bits(fn())
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("name, form, ref, args, fns", FORMS, ids=[f[0] for f in FORMS])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_each_form_gives_the_bits_of_its_body(name, form, ref, args, fns, data):
    x = data.draw(args)
    assert _outcome(lambda: form()(*x, *fns)) == _outcome(lambda: ref(x))


def test_a_traced_value_has_no_truth_value():
    """A body that branches on its data fails to compile, and never
    compiles to a function of one branch."""
    with pytest.raises(TypeError, match="has no truth value"):
        straight_line(lambda x: [bool(x[0])], 1)
    for branching in (xi, lambda y: _blend_inverse(y, TRACE_OPS)):
        with pytest.raises(TypeError, match="has no truth value"):
            straight_line(lambda x, f=branching: f(x[0]), 1)


def test_constant_operands_fold_into_the_form():
    """A table function of constants and a where on a constant condition are
    worked out while tracing; the form computes only from its arguments."""
    form = straight_line(lambda x: [TRACE_OPS.cos(TRACE_OPS.pi) * x[0],
                                    TRACE_OPS.where(True, x[0], 2.0), -x[0]], 1)
    assert _bits(form(0.3)) == _bits([math.cos(math.pi) * 0.3, 0.3, -0.3])


def test_the_wrinkle_is_looked_up_at_each_call(monkeypatch):
    """psi_inv calls subdivision.xi_inv as the module holds it at the call,
    so a wrapper installed after the compile still sees every inversion."""
    cyl = subdivision.psi(2, np.array([0.48, 0.6, 0.64, 0.0]))
    subdivision.psi_inv(2, cyl)  # compiles the form
    calls = []

    def counted(y):
        calls.append(y)
        return xi_inv(y)

    monkeypatch.setattr(subdivision, "xi_inv", counted)
    back = subdivision.psi_inv(2, cyl)
    assert len(calls) == 1
    monkeypatch.undo()
    assert subdivision.psi_inv(2, cyl).tolist() == back.tolist()


def test_forms_compile_on_first_use_not_at_import():
    code = ("import difftop\n"
            "from difftop import diskmodel, instances, subdivision\n"
            "caches = [diskmodel._chart_form, subdivision._psi_form, instances._edge_form]\n"
            "assert [c.cache_info().currsize for c in caches] == [0, 0, 0]\n"
            "diskmodel.section(1, [0.6, 0.8])\n"
            "assert diskmodel._chart_form.cache_info().currsize == 1\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def _loaded(code):
    """The local names a code object reads."""
    names = set()
    for ins in dis.get_instructions(code):
        if ins.opname.startswith("LOAD_FAST"):  # LOAD_FAST_LOAD_FAST reads a pair
            names.update(ins.argval if isinstance(ins.argval, tuple) else [ins.argval])
    return names


def _expression_form(field):
    """The float form ``compile_expr`` compiles for a field of the bundled instances."""
    forms = {}

    def recording(body, size, fns=(), name="body"):
        forms[name] = straight_line(body, size, fns, name)
        return forms[name]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instances, "straight_line", recording)
        instances.bundled_chep_instance()
        instances.bundled_extend_instance()
    return forms[field]


EXPRESSION_FORMS = [(f"expression {field}", lambda field=field: _expression_form(field))
                    for field in ("k", "fiber0", "fiber_base", "bottom")]


@pytest.mark.parametrize("name, form", [f[:2] for f in FORMS] + EXPRESSION_FORMS,
                         ids=[f[0] for f in FORMS + EXPRESSION_FORMS])
def test_every_line_of_a_form_is_read(name, form):
    """A form assigns no name that nothing reads: unread lines are dropped."""
    code = form().__code__
    assert set(code.co_varnames[code.co_argcount:]) <= _loaded(code)


def test_times_one_emits_its_operand_and_plus_zero_stays(monkeypatch):
    """1.0 * x and x * 1.0 are x, bit for bit, and emit no product; 0.0 + x
    turns -0.0 into 0.0, so it stays.  An unread line is dropped."""
    sources = []
    monkeypatch.setattr(smoothfn, "compiled",
                        lambda source, filename: sources.append(source) or compile(
                            source, filename, "exec"))
    form = straight_line(lambda x: [1.0 * x[0], x[0] * 1.0, 0.0 + x[0], -x[0]], 1)
    lines = sources[0].splitlines()[1:]
    assert lines == ["    t0 = (0.0) + x0", "    t1 = -x0", "    return [x0, x0, t0, t1]"]
    for v in (-0.0, 0.5, math.inf, math.nan):
        assert _bits(form(v)) == _bits([1.0 * v, v * 1.0, 0.0 + v, -v])
    form = straight_line(lambda x: [x[0] * 3.0, x[0] - 1.0][1:], 1)
    assert sources[-1].splitlines()[1:] == ["    t1 = x0 - (1.0)", "    return [t1]"]
    assert form(0.25) == [-0.75]


def test_the_ops_tables_hold_one_set_of_names():
    """Shared code and the code ``straight_line`` emits find every name in
    every table, the instance expressions' xi, gamma and load among them."""
    names = set(vars(FLOAT_OPS))
    assert names == set(vars(ARRAY_OPS)) == set(vars(TRACE_OPS))
    assert {"xi", "gamma", "load"} <= names

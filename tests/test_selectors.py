"""What each expression-language selector reads in matrix and in vector
position under five bindings, or the error that names it; and what each
covariant tensor of the second of two fields is: its label, kind, size,
space, dependencies and component bits at two points.

Run as a script to print the tables this file pins:
``PYTHONPATH=src python tests/test_selectors.py``.
"""

import hashlib
import re

import pytest

from invforge.exprlang import BindError, bind
from invforge.invcat import TENSORS, _plain_view, covariant_tensor
from invforge.jetspace import COMPLEX, REAL, minkowski
from invforge.liealg import catalog, make_sampler, make_spec, prolong2
from invforge.verify import check_absolute, family_jacobian

# binding: (n_base, keyword arguments of bind), two fields each
BINDINGS = {
    "euclidean": (3, {}),
    "minkowski": (4, {"metric": minkowski(4)}),
    "time": (4, {"time_mode": True}),
    "minkowski time": (4, {"metric": minkowski(4), "time_mode": True}),
    "pair time": (4, {"field_kind": COMPLEX, "time_mode": True}),
}
SELECTORS = ("ddu1", "inv1", "theta1", "w1", "eik1", "x", "du1", "thvec2",
             "dut1", "ith1", "bth1", "bth2", "tau1(0.4)", "r4vec1",
             "du1 + du2", "2", "ddu٢", "du٢")
# each position reads every entry of the matrix or the vector
POSITIONS = {"matrix": "S(2; {})", "vector": "contract({0}, {0})"}


def _outcome(text, binding):
    """The coordinates the bound text reads and its value at one point, or
    the error that binding or evaluating it raises."""
    n, kw = BINDINGS[binding]
    try:
        fn = bind(text, n, 2, **kw)
    except BindError as exc:
        return f"BindError: {exc}"
    point = make_sampler(n, 2, kw.get("field_kind", REAL),
                         positive_fields=True)(0)
    try:
        value = repr(fn.eval(point))
    except Exception as exc:  # the outcome records what evaluation raises
        value = f"{type(exc).__name__}: {exc}"
    return f"{' '.join(map(str, fn.deps))} = {value}"


def _tensor(name, n):
    """Label, kind, size, space, dependencies and a digest of the
    components' values and gradients at two points, by repr."""
    tensor = covariant_tensor(name, n, lam=0.4, mu=0.5, r=2, m=2)
    comps = tensor.components()
    sampler = tensor.space.sampler(seed=0)
    digest = hashlib.sha256()
    for idx in range(2):
        point = sampler(idx)
        for comp in comps:
            digest.update(repr((comp.eval(point), comp.grad(point))).encode())
        digest.update(repr(tensor.build(point)).encode())
    return (tensor.label, tensor.kind, tensor.size, repr(tensor.space),
            " ".join(map(str, tensor.deps)), digest.hexdigest()[:16])


# (selector, position): outcome per binding, in BINDINGS order
SELECTOR_OUTCOMES = {
    ('ddu1', 'matrix'): (
        'u1_00 u1_01 u1_02 u1_11 u1_12 u1_22 = 17.087075248757618',
        ('u1_00 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = '
         '15.99237279187955'),
        'u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = 20.803404524215214',
        'u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = 20.803404524215214',
        ('u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = '
         '(-6.1725596301897765+6.025429644890363j)'),
    ),
    ('ddu1', 'vector'): (
        "BindError: unknown vector 'ddu1'",
        "BindError: unknown vector 'ddu1'",
        "BindError: unknown vector 'ddu1'",
        "BindError: unknown vector 'ddu1'",
        "BindError: unknown vector 'ddu1'",
    ),
    ('inv1', 'matrix'): (
        'BindError: inv1 is only valid in a time binding',
        'BindError: inv1 is only valid in a time binding',
        'u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = 2.6804040800711366',
        'u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = 2.6804040800711366',
        ('u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = '
         '(-0.13453671437091766+0.0008651096923852769j)'),
    ),
    ('inv1', 'vector'): (
        "BindError: unknown vector 'inv1'",
        "BindError: unknown vector 'inv1'",
        "BindError: unknown vector 'inv1'",
        "BindError: unknown vector 'inv1'",
        "BindError: unknown vector 'inv1'",
    ),
    ('theta1', 'matrix'): (
        ('u1 u1_0 u1_1 u1_2 u1_00 u1_01 u1_02 u1_11 u1_12 u1_22 = '
         '23.64839067339213'),
        ('u1 u1_0 u1_1 u1_2 u1_3 u1_00 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 '
         'u1_22 u1_23 u1_33 = 24.147633690907163'),
        'BindError: theta1 is not available in time bindings',
        'BindError: theta1 is not available in time bindings',
        'BindError: theta1 is not available in time bindings',
    ),
    ('theta1', 'vector'): (
        "BindError: unknown vector 'theta1'",
        "BindError: unknown vector 'theta1'",
        "BindError: unknown vector 'theta1'",
        "BindError: unknown vector 'theta1'",
        "BindError: unknown vector 'theta1'",
    ),
    ('w1', 'matrix'): (
        ('u1_0 u1_1 u1_2 u1_00 u1_01 u1_02 u1_11 u1_12 u1_22 = '
         '1439.039840684242'),
        ('u1_0 u1_1 u1_2 u1_3 u1_00 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 '
         'u1_22 u1_23 u1_33 = 283.0819315019837'),
        'BindError: w1 is not available in time bindings',
        'BindError: w1 is not available in time bindings',
        'BindError: w1 is not available in time bindings',
    ),
    ('w1', 'vector'): (
        "BindError: unknown vector 'w1'",
        "BindError: unknown vector 'w1'",
        "BindError: unknown vector 'w1'",
        "BindError: unknown vector 'w1'",
        "BindError: unknown vector 'w1'",
    ),
    ('eik1', 'matrix'): (
        'BindError: eik1 needs a Minkowski metric',
        ('u1_0 u1_1 u1_2 u1_3 u1_00 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 '
         'u1_22 u1_23 u1_33 = 337.17729450979056'),
        'BindError: eik1 needs a Minkowski metric',
        'BindError: eik1 is not available in time bindings',
        'BindError: eik1 needs a Minkowski metric',
    ),
    ('eik1', 'vector'): (
        "BindError: unknown vector 'eik1'",
        "BindError: unknown vector 'eik1'",
        "BindError: unknown vector 'eik1'",
        "BindError: unknown vector 'eik1'",
        "BindError: unknown vector 'eik1'",
    ),
    ('x', 'matrix'): (
        "BindError: unknown tensor 'x'",
        "BindError: unknown tensor 'x'",
        "BindError: unknown tensor 'x'",
        "BindError: unknown tensor 'x'",
        "BindError: unknown tensor 'x'",
    ),
    ('x', 'vector'): (
        'x0 x1 x2 = 6.275511755025597',
        'x0 x1 x2 x3 = -6.692745179538762',
        'x1 x2 x3 = 7.462553169554431',
        'x1 x2 x3 = -7.462553169554431',
        'x1 x2 x3 = 6.898776611003461',
    ),
    ('du1', 'matrix'): (
        "BindError: unknown tensor 'du1'",
        "BindError: unknown tensor 'du1'",
        "BindError: unknown tensor 'du1'",
        "BindError: unknown tensor 'du1'",
        "BindError: unknown tensor 'du1'",
    ),
    ('du1', 'vector'): (
        'u1_0 u1_1 u1_2 = 7.318553555098196',
        'u1_0 u1_1 u1_2 u1_3 = -7.112033897281748',
        'u1_1 u1_2 u1_3 = 8.450196871139818',
        'u1_1 u1_2 u1_3 = -8.450196871139818',
        'u1_1 u1_2 u1_3 = (1.4082511285155532+3.472085608153235j)',
    ),
    ('thvec2', 'matrix'): (
        "BindError: unknown tensor 'thvec2'",
        "BindError: unknown tensor 'thvec2'",
        "BindError: unknown tensor 'thvec2'",
        "BindError: unknown tensor 'thvec2'",
        "BindError: unknown tensor 'thvec2'",
    ),
    ('thvec2', 'vector'): (
        'u1 u2 u1_0 u1_1 u1_2 u2_0 u2_1 u2_2 = 16.452774383400513',
        'u1 u2 u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 = 3.9580243008236042',
        'u1 u2 u1_1 u1_2 u1_3 u2_1 u2_2 u2_3 = 6.841412434204076',
        'u1 u2 u1_1 u1_2 u1_3 u2_1 u2_2 u2_3 = -6.841412434204076',
        'u1 u2 u1_1 u1_2 u1_3 u2_1 u2_2 u2_3 = (-4.725487260329572+0j)',
    ),
    ('dut1', 'matrix'): (
        "BindError: unknown tensor 'dut1'",
        "BindError: unknown tensor 'dut1'",
        "BindError: unknown tensor 'dut1'",
        "BindError: unknown tensor 'dut1'",
        "BindError: unknown tensor 'dut1'",
    ),
    ('dut1', 'vector'): (
        'BindError: dut1 is only valid in a time binding',
        'BindError: dut1 is only valid in a time binding',
        'u1_01 u1_02 u1_03 = 4.371908895989884',
        'u1_01 u1_02 u1_03 = -4.371908895989884',
        'u1_01 u1_02 u1_03 = (1.1359073526972048-0.11183753422334886j)',
    ),
    ('ith1', 'matrix'): (
        "BindError: unknown tensor 'ith1'",
        "BindError: unknown tensor 'ith1'",
        "BindError: unknown tensor 'ith1'",
        "BindError: unknown tensor 'ith1'",
        "BindError: unknown tensor 'ith1'",
    ),
    ('ith1', 'vector'): (
        'BindError: ith1 is only valid in a time binding',
        'BindError: ith1 is only valid in a time binding',
        ('u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = '
         '0.5741382101676927'),
        ('u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = '
         '-0.5741382101676927'),
        ('u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 = '
         '(-0.24281459386953302-0.6958238145806614j)'),
    ),
    ('bth1', 'matrix'): (
        "BindError: unknown tensor 'bth1'",
        "BindError: unknown tensor 'bth1'",
        "BindError: unknown tensor 'bth1'",
        "BindError: unknown tensor 'bth1'",
        "BindError: unknown tensor 'bth1'",
    ),
    ('bth1', 'vector'): (
        'BindError: bth1 is only valid in a time binding',
        'BindError: bth1 is only valid in a time binding',
        ('u1_1 u1_2 u1_3 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 '
         'u1_33 = 69.9084156069502'),
        ('u1_1 u1_2 u1_3 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 '
         'u1_33 = -69.9084156069502'),
        ('u1_1 u1_2 u1_3 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 '
         'u1_33 = (10.017733518402473+34.82521830198572j)'),
    ),
    ('bth2', 'matrix'): (
        "BindError: unknown tensor 'bth2'",
        "BindError: unknown tensor 'bth2'",
        "BindError: unknown tensor 'bth2'",
        "BindError: unknown tensor 'bth2'",
        "BindError: unknown tensor 'bth2'",
    ),
    ('bth2', 'vector'): (
        'BindError: bth2 is only valid in a time binding',
        'BindError: bth2 is only valid in a time binding',
        ('u2_1 u2_2 u2_3 u2_01 u2_02 u2_03 u2_11 u2_12 u2_13 u2_22 u2_23 '
         'u2_33 = 11.250966260731973'),
        ('u2_1 u2_2 u2_3 u2_01 u2_02 u2_03 u2_11 u2_12 u2_13 u2_22 u2_23 '
         'u2_33 = -11.250966260731973'),
        ('u2_1 u2_2 u2_3 u2_01 u2_02 u2_03 u2_11 u2_12 u2_13 u2_22 u2_23 '
         'u2_33 = (10.017733518402473-34.82521830198572j)'),
    ),
    ('tau1(0.4)', 'matrix'): (
        "BindError: unknown tensor 'tau1'",
        "BindError: unknown tensor 'tau1'",
        "BindError: unknown tensor 'tau1'",
        "BindError: unknown tensor 'tau1'",
        "BindError: unknown tensor 'tau1'",
    ),
    ('tau1(0.4)', 'vector'): (
        'BindError: tau1 is only valid in a time binding',
        'BindError: tau1 is only valid in a time binding',
        ('u1_0 u1_1 u1_2 u1_3 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 '
         'u1_23 u1_33 = 1.2051358535454137'),
        ('u1_0 u1_1 u1_2 u1_3 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 '
         'u1_23 u1_33 = -1.2051358535454137'),
        ('u1_0 u1_1 u1_2 u1_3 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 '
         'u1_23 u1_33 = (0.33353601922950843+0.4229783318976861j)'),
    ),
    ('r4vec1', 'matrix'): (
        "BindError: unknown tensor 'r4vec1'",
        "BindError: unknown tensor 'r4vec1'",
        "BindError: unknown tensor 'r4vec1'",
        "BindError: unknown tensor 'r4vec1'",
        "BindError: unknown tensor 'r4vec1'",
    ),
    ('r4vec1', 'vector'): (
        'BindError: r4vec1 is only valid in a time binding',
        'BindError: r4vec1 is only valid in a time binding',
        'BindError: r4vec1 needs a conjugate pair of fields',
        'BindError: r4vec1 needs a conjugate pair of fields',
        ('u1_0 u1_1 u1_2 u1_3 u2_1 u2_2 u2_3 u1_01 u1_02 u1_03 u1_11 u1_12 '
         'u1_13 u1_22 u1_23 u1_33 u2_01 u2_02 u2_03 u2_11 u2_12 u2_13 u2_22 '
         'u2_23 u2_33 = (6.752075316561246-9.954791936729643j)'),
    ),
    ('du1 + du2', 'matrix'): (
        'BindError: field index must be an integer literal',
        'BindError: field index must be an integer literal',
        'BindError: field index must be an integer literal',
        'BindError: field index must be an integer literal',
        'BindError: field index must be an integer literal',
    ),
    ('du1 + du2', 'vector'): (
        'u1_0 u1_1 u1_2 u2_0 u2_1 u2_2 = 8.529377838487513',
        'u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 = -12.391986178539195',
        'u1_1 u1_2 u1_3 u2_1 u2_2 u2_3 = 22.320031609051735',
        'u1_1 u1_2 u1_3 u2_1 u2_2 u2_3 = -22.320031609051735',
        'u1_1 u1_2 u1_3 u2_1 u2_2 u2_3 = (21.97070365709905+0j)',
    ),
    ('2', 'matrix'): (
        'u2_00 u2_01 u2_02 u2_11 u2_12 u2_22 = 9.587570771990494',
        ('u2_00 u2_01 u2_02 u2_03 u2_11 u2_12 u2_13 u2_22 u2_23 u2_33 = '
         '3.428007032681001'),
        'u2_11 u2_12 u2_13 u2_22 u2_23 u2_33 = 12.01183906987282',
        'u2_11 u2_12 u2_13 u2_22 u2_23 u2_33 = 12.01183906987282',
        ('u2_11 u2_12 u2_13 u2_22 u2_23 u2_33 = '
         '(-6.1725596301897765-6.025429644890363j)'),
    ),
    ('2', 'vector'): (
        'u2_0 u2_1 u2_2 = 4.492064659404039',
        'u2_0 u2_1 u2_2 u2_3 = 0.10967152168298488',
        'u2_1 u2_2 u2_3 = 3.866724046162207',
        'u2_1 u2_2 u2_3 = -3.866724046162207',
        'u2_1 u2_2 u2_3 = (1.4082511285155532-3.472085608153235j)',
    ),
    ('ddu٢', 'matrix'): (
        'u2_00 u2_01 u2_02 u2_11 u2_12 u2_22 = 9.587570771990494',
        ('u2_00 u2_01 u2_02 u2_03 u2_11 u2_12 u2_13 u2_22 u2_23 u2_33 = '
         '3.428007032681001'),
        'u2_11 u2_12 u2_13 u2_22 u2_23 u2_33 = 12.01183906987282',
        'u2_11 u2_12 u2_13 u2_22 u2_23 u2_33 = 12.01183906987282',
        ('u2_11 u2_12 u2_13 u2_22 u2_23 u2_33 = '
         '(-6.1725596301897765-6.025429644890363j)'),
    ),
    ('ddu٢', 'vector'): (
        "BindError: unknown vector 'ddu٢'",
        "BindError: unknown vector 'ddu٢'",
        "BindError: unknown vector 'ddu٢'",
        "BindError: unknown vector 'ddu٢'",
        "BindError: unknown vector 'ddu٢'",
    ),
    ('du٢', 'matrix'): (
        "BindError: unknown tensor 'du٢'",
        "BindError: unknown tensor 'du٢'",
        "BindError: unknown tensor 'du٢'",
        "BindError: unknown tensor 'du٢'",
        "BindError: unknown tensor 'du٢'",
    ),
    ('du٢', 'vector'): (
        'u2_0 u2_1 u2_2 = 4.492064659404039',
        'u2_0 u2_1 u2_2 u2_3 = 0.10967152168298488',
        'u2_1 u2_2 u2_3 = 3.866724046162207',
        'u2_1 u2_2 u2_3 = -3.866724046162207',
        'u2_1 u2_2 u2_3 = (1.4082511285155532-3.472085608153235j)',
    ),
}
TENSOR_OUTCOMES = {
    ('theta', 3): (
        'theta(lam=0.4, r=2)',
        'matrix',
        3,
        ('JetSpace(n_base=3, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=3), "
         'positive_fields=True)'),
        ('u1 u2 u1_0 u1_1 u1_2 u2_0 u2_1 u2_2 u1_00 u1_01 u1_02 u1_11 u1_12 '
         'u1_22 u2_00 u2_01 u2_02 u2_11 u2_12 u2_22'),
        '95c356c4a83b87f1',
    ),
    ('theta', 4): (
        'theta(lam=0.4, r=2)',
        'matrix',
        4,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=4), "
         'positive_fields=True)'),
        ('u1 u2 u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 u1_00 u1_01 u1_02 '
         'u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 u2_01 u2_02 u2_03 '
         'u2_11 u2_12 u2_13 u2_22 u2_23 u2_33'),
        '6c7e4c4a70f48fec',
    ),
    ('w', 3): (
        'w(r=2)',
        'matrix',
        3,
        ('JetSpace(n_base=3, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=3), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u2_0 u2_1 u2_2 u1_00 u1_01 u1_02 u1_11 u1_12 u1_22 '
         'u2_00 u2_01 u2_02 u2_11 u2_12 u2_22'),
        'd93cf1ee82f195b1',
    ),
    ('w', 4): (
        'w(r=2)',
        'matrix',
        4,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=4), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 u1_00 u1_01 u1_02 u1_03 '
         'u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 u2_01 u2_02 u2_03 u2_11 '
         'u2_12 u2_13 u2_22 u2_23 u2_33'),
        '3262ece5360df8ce',
    ),
    ('theta_minkowski', 3): (
        'theta_mink(lam=0.4, r=2)',
        'matrix',
        4,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='minkowski', dim=4), "
         'positive_fields=True)'),
        ('u1 u2 u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 u1_00 u1_01 u1_02 '
         'u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 u2_01 u2_02 u2_03 '
         'u2_11 u2_12 u2_13 u2_22 u2_23 u2_33'),
        '30677d0e8539d802',
    ),
    ('theta_minkowski', 4): (
        'theta_mink(lam=0.4, r=2)',
        'matrix',
        5,
        ('JetSpace(n_base=5, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='minkowski', dim=5), "
         'positive_fields=True)'),
        ('u1 u2 u1_0 u1_1 u1_2 u1_3 u1_4 u2_0 u2_1 u2_2 u2_3 u2_4 u1_00 '
         'u1_01 u1_02 u1_03 u1_04 u1_11 u1_12 u1_13 u1_14 u1_22 u1_23 u1_24 '
         'u1_33 u1_34 u1_44 u2_00 u2_01 u2_02 u2_03 u2_04 u2_11 u2_12 u2_13 '
         'u2_14 u2_22 u2_23 u2_24 u2_33 u2_34 u2_44'),
        'af85e3d84809f671',
    ),
    ('w_minkowski', 3): (
        'w_mink(r=2)',
        'matrix',
        4,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='minkowski', dim=4), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 u1_00 u1_01 u1_02 u1_03 '
         'u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 u2_01 u2_02 u2_03 u2_11 '
         'u2_12 u2_13 u2_22 u2_23 u2_33'),
        'b8a7abb2331a8f92',
    ),
    ('w_minkowski', 4): (
        'w_mink(r=2)',
        'matrix',
        5,
        ('JetSpace(n_base=5, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='minkowski', dim=5), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u1_3 u1_4 u2_0 u2_1 u2_2 u2_3 u2_4 u1_00 u1_01 '
         'u1_02 u1_03 u1_04 u1_11 u1_12 u1_13 u1_14 u1_22 u1_23 u1_24 u1_33 '
         'u1_34 u1_44 u2_00 u2_01 u2_02 u2_03 u2_04 u2_11 u2_12 u2_13 u2_14 '
         'u2_22 u2_23 u2_24 u2_33 u2_34 u2_44'),
        '4dd8b90073d21aee',
    ),
    ('theta_vector_minkowski', 3): (
        'theta_vec(u2)',
        'vector',
        4,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='minkowski', dim=4), "
         'positive_fields=True)'),
        'u1 u2 u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3',
        'b8b383e3597c0e75',
    ),
    ('theta_vector_minkowski', 4): (
        'theta_vec(u2)',
        'vector',
        5,
        ('JetSpace(n_base=5, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='minkowski', dim=5), "
         'positive_fields=True)'),
        'u1 u2 u1_0 u1_1 u1_2 u1_3 u1_4 u2_0 u2_1 u2_2 u2_3 u2_4',
        '8ee7e5ff19e8972d',
    ),
    ('eikonal_theta', 3): (
        'eikonal_theta(r=2)',
        'matrix',
        4,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='minkowski', dim=4), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 u1_00 u1_01 u1_02 u1_03 '
         'u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 u2_01 u2_02 u2_03 u2_11 '
         'u2_12 u2_13 u2_22 u2_23 u2_33'),
        '4a0e259027eac1ca',
    ),
    ('eikonal_theta', 4): (
        'eikonal_theta(r=2)',
        'matrix',
        5,
        ('JetSpace(n_base=5, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='minkowski', dim=5), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u1_3 u1_4 u2_0 u2_1 u2_2 u2_3 u2_4 u1_00 u1_01 '
         'u1_02 u1_03 u1_04 u1_11 u1_12 u1_13 u1_14 u1_22 u1_23 u1_24 u1_33 '
         'u1_34 u1_44 u2_00 u2_01 u2_02 u2_03 u2_04 u2_11 u2_12 u2_13 u2_14 '
         'u2_22 u2_23 u2_24 u2_33 u2_34 u2_44'),
        '20b071f0813db636',
    ),
    ('galilei_theta', 3): (
        'galilei_theta(r=2, mu=0.5)',
        'vector',
        3,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=3), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 u1_00 u1_01 u1_02 u1_03 '
         'u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 u2_01 u2_02 u2_03 u2_11 '
         'u2_12 u2_13 u2_22 u2_23 u2_33'),
        '1346d24bd00523b8',
    ),
    ('galilei_theta', 4): (
        'galilei_theta(r=2, mu=0.5)',
        'vector',
        4,
        ('JetSpace(n_base=5, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=4), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u1_3 u1_4 u2_0 u2_1 u2_2 u2_3 u2_4 u1_00 u1_01 '
         'u1_02 u1_03 u1_04 u1_11 u1_12 u1_13 u1_14 u1_22 u1_23 u1_24 u1_33 '
         'u1_34 u1_44 u2_00 u2_01 u2_02 u2_03 u2_04 u2_11 u2_12 u2_13 u2_14 '
         'u2_22 u2_23 u2_24 u2_33 u2_34 u2_44'),
        '9f92e144652261da',
    ),
    ('galilei_theta2', 3): (
        'galilei_theta2(r=2, mu=0.5)',
        'matrix',
        3,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=3), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 u1_00 u1_01 u1_02 u1_03 '
         'u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 u2_01 u2_02 u2_03 u2_11 '
         'u2_12 u2_13 u2_22 u2_23 u2_33'),
        '5c21a097b60284aa',
    ),
    ('galilei_theta2', 4): (
        'galilei_theta2(r=2, mu=0.5)',
        'matrix',
        4,
        ('JetSpace(n_base=5, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=4), "
         'positive_fields=False)'),
        ('u1_0 u1_1 u1_2 u1_3 u1_4 u2_0 u2_1 u2_2 u2_3 u2_4 u1_00 u1_01 '
         'u1_02 u1_03 u1_04 u1_11 u1_12 u1_13 u1_14 u1_22 u1_23 u1_24 u1_33 '
         'u1_34 u1_44 u2_00 u2_01 u2_02 u2_03 u2_04 u2_11 u2_12 u2_13 u2_14 '
         'u2_22 u2_23 u2_24 u2_33 u2_34 u2_44'),
        '807e03c83a9831bf',
    ),
    ('galilei_h', 3): (
        'galilei_h(r=2, mu=0.5)',
        'vector',
        3,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=3), "
         'positive_fields=False)'),
        'x0 x1 x2 x3 u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3',
        '3ad164a302ae89b2',
    ),
    ('galilei_h', 4): (
        'galilei_h(r=2, mu=0.5)',
        'vector',
        4,
        ('JetSpace(n_base=5, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=4), "
         'positive_fields=False)'),
        'x0 x1 x2 x3 x4 u1_0 u1_1 u1_2 u1_3 u1_4 u2_0 u2_1 u2_2 u2_3 u2_4',
        '7529431404f19c22',
    ),
    ('galilei_hhat_mu0', 3): (
        'galilei_hhat(r=2)',
        'vector',
        3,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=3), "
         'positive_fields=False)'),
        ('x0 x1 x2 x3 u1_0 u1_1 u1_2 u1_3 u2_0 u2_1 u2_2 u2_3 u1_00 u1_01 '
         'u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 u2_01 u2_02 '
         'u2_03 u2_11 u2_12 u2_13 u2_22 u2_23 u2_33'),
        '2c6165903394ed8e',
    ),
    ('galilei_hhat_mu0', 4): (
        'galilei_hhat(r=2)',
        'vector',
        4,
        ('JetSpace(n_base=5, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=4), "
         'positive_fields=False)'),
        ('x0 x1 x2 x3 x4 u1_0 u1_1 u1_2 u1_3 u1_4 u2_0 u2_1 u2_2 u2_3 u2_4 '
         'u1_00 u1_01 u1_02 u1_03 u1_04 u1_11 u1_12 u1_13 u1_14 u1_22 u1_23 '
         'u1_24 u1_33 u1_34 u1_44 u2_00 u2_01 u2_02 u2_03 u2_04 u2_11 u2_12 '
         'u2_13 u2_14 u2_22 u2_23 u2_24 u2_33 u2_34 u2_44'),
        '2a844ea83b752735',
    ),
    ('implicit_theta', 3): (
        'implicit_theta(r=2)',
        'vector',
        3,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=3), "
         'positive_fields=False)'),
        ('u1_00 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 '
         'u2_01 u2_02 u2_03 u2_11 u2_12 u2_13 u2_22 u2_23 u2_33'),
        'ec2d11f0c93353d1',
    ),
    ('implicit_theta', 4): (
        'implicit_theta(r=2)',
        'vector',
        4,
        ('JetSpace(n_base=5, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=4), "
         'positive_fields=False)'),
        ('u1_00 u1_01 u1_02 u1_03 u1_04 u1_11 u1_12 u1_13 u1_14 u1_22 u1_23 '
         'u1_24 u1_33 u1_34 u1_44 u2_00 u2_01 u2_02 u2_03 u2_04 u2_11 u2_12 '
         'u2_13 u2_14 u2_22 u2_23 u2_24 u2_33 u2_34 u2_44'),
        '4c5acdd3cd0d51e1',
    ),
    ('hessian', 3): (
        'hessian(r=2)',
        'matrix',
        3,
        ('JetSpace(n_base=3, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=3), "
         'positive_fields=False)'),
        ('u1_00 u1_01 u1_02 u1_11 u1_12 u1_22 u2_00 u2_01 u2_02 u2_11 u2_12 '
         'u2_22'),
        '8a1658f69063dabe',
    ),
    ('hessian', 4): (
        'hessian(r=2)',
        'matrix',
        4,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=4), "
         'positive_fields=False)'),
        ('u1_00 u1_01 u1_02 u1_03 u1_11 u1_12 u1_13 u1_22 u1_23 u1_33 u2_00 '
         'u2_01 u2_02 u2_03 u2_11 u2_12 u2_13 u2_22 u2_23 u2_33'),
        '286752560af36b6c',
    ),
    ('position', 3): (
        'x',
        'vector',
        3,
        ('JetSpace(n_base=3, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=3), "
         'positive_fields=False)'),
        'x0 x1 x2',
        'b0b1db2505d830d4',
    ),
    ('position', 4): (
        'x',
        'vector',
        4,
        ('JetSpace(n_base=4, n_fields=2, field_kind=<FieldKind.REAL: '
         "'real'>, metric=Metric(kind='euclidean', dim=4), "
         'positive_fields=False)'),
        'x0 x1 x2 x3',
        '5e43bb1e1434640e',
    ),
}


@pytest.mark.parametrize("selector, position", SELECTOR_OUTCOMES)
def test_selector_reads_or_names_its_error(selector, position):
    text = POSITIONS[position].format(selector)
    assert tuple(_outcome(text, b) for b in BINDINGS) \
        == SELECTOR_OUTCOMES[selector, position]


def test_every_selector_is_pinned_in_both_positions():
    assert set(SELECTOR_OUTCOMES) == {
        (s, p) for s in SELECTORS for p in POSITIONS}


@pytest.mark.parametrize("selected, written, operators", [
    ("S(1)", "u_x1x1 + u_x2x2 + u_x3x3", "G"),
    ("contract(du1, du1)", "u_x1 ^ 2 + u_x2 ^ 2 + u_x3 ^ 2", ""),
])
def test_a_time_binding_records_a_function_however_written(
        selected, written, operators):
    # a selector contracts over x1..xn and lists no t-derivative it does
    # not read, so the two texts give the boosts G1..G3 (with "G"), or
    # every operator, the same records under AG_I; G1's scale was 6.878
    # against 0, and 8.848 against 5.211.  S(1) lists the Hessian's
    # off-diagonal entries, which the rotations move, as its matrix reads
    spec = make_spec("AG_I", 3, rep="log")
    ops = [prolong2(f) for f in catalog(spec)]
    records = [[(r.operator, r.max_residual, r.scale, r.verdict)
                for r in check_absolute(ops, [bind(text, 4, time_mode=True)],
                                        n_samples=4, seed=0).records
                if r.operator.startswith(operators)]
               for text in (selected, written)]
    assert records[0] == records[1]


@pytest.mark.parametrize("name, n", TENSOR_OUTCOMES)
def test_tensor_of_the_second_field(name, n):
    assert _tensor(name, n) == TENSOR_OUTCOMES[name, n]


def test_every_tensor_is_pinned():
    assert set(TENSOR_OUTCOMES) == {(t, n) for t in TENSORS for n in (3, 4)}


@pytest.mark.parametrize("name, first, second", [
    ("theta", {"r": 1}, {"r": 2}),
    ("w_minkowski", {"r": 1}, {"r": 2}),
    ("galilei_theta", {"mu": 1.0}, {"mu": 2.0}),
    ("galilei_theta2", {"mu": 1.0}, {"mu": 2.0}),
    ("galilei_h", {"mu": 1.0}, {"mu": 2.0}),
    ("galilei_hhat_mu0", {"r": 1}, {"r": 2}),
    ("implicit_theta", {"r": 1}, {"r": 2}),
])
def test_tensors_sharing_a_label_keep_their_own_values_on_one_view(
        name, first, second):
    """Two tensors of one name for other fields or boost weights carry
    their own labels, and evaluated on one view, as a check's members
    share it, give each its own values and gradients."""
    a = covariant_tensor(name, 3, m=2, **first)
    b = covariant_tensor(name, 3, m=2, **second)
    assert a.label != b.label
    comps = a.components() + b.components()
    point = a.space.sampler(seed=0)(0)
    view = _plain_view(point)
    assert [c.eval(point, view) for c in comps] \
        == [c.eval(point) for c in comps]
    assert family_jacobian(comps, point, a.deps) \
        == family_jacobian(a.components(), point, a.deps) \
        + family_jacobian(b.components(), point, b.deps)


@pytest.mark.parametrize("text, message", [
    ("contract(tau1, du1)", "unknown vector 'tau1'"),
    ("contract(du1(0.4), du1)", "unknown vector 'du1'"),
    ("S(1; tau1(0.4))", "unknown tensor 'tau1'"),
    ("S(1; theta1(0.4))", "unknown tensor 'theta1'"),
    ("S(1; foo1)", "unknown tensor 'foo1'"),
])
def test_only_tau_is_a_call(text, message):
    with pytest.raises(BindError, match=f"^{message}$"):
        bind(text, 4, time_mode=True)


@pytest.mark.parametrize("kind", (REAL, COMPLEX))
@pytest.mark.parametrize("text, name", [
    ("S(1; theta1)", "theta1"), ("S(2; w2)", "w2"), ("S(1; eik1)", "eik1"),
    ("tr(theta1)", "theta1"), ("tr(w1)", "w1"), ("det(eik2)", "eik2"),
    ("Sjk(1, 2; theta1, ddu2)", "theta1"),
])
def test_minkowski_time_binding_refuses_theta_w_and_eik(text, name, kind):
    """They span every base coordinate, where a time binding contracts
    over the spatial ones only."""
    with pytest.raises(BindError,
                       match=f"^{name} is not available in time bindings$"):
        bind(text, 4, 2, metric=minkowski(4), field_kind=kind,
             time_mode=True)


def _wrapped(text, indent):
    """``text`` as implicitly joined literals of at most 79 columns."""
    width, parts, line = 76 - indent, [], ""
    for word in re.findall(r"\S+ ?", text):
        if line and len(repr(line + word)) > width:
            parts.append(line)
            line = ""
        line += word
    parts.append(line)
    if len(parts) == 1:
        return repr(text)
    pad = "\n" + " " * (indent + 1)
    return "(" + pad.join(map(repr, parts)) + ")"


if __name__ == "__main__":
    print("SELECTOR_OUTCOMES = {")
    for s in SELECTORS:
        for p in POSITIONS:
            text = POSITIONS[p].format(s)
            print(f"    {(s, p)!r}: (")
            for b in BINDINGS:
                print(f"        {_wrapped(_outcome(text, b), 8)},")
            print("    ),")
    print("}")
    print("TENSOR_OUTCOMES = {")
    for t in TENSORS:
        for n in (3, 4):
            print(f"    {(t, n)!r}: (")
            for part in _tensor(t, n):
                print(f"        {_wrapped(part, 8) if isinstance(part, str) else part},")
            print("    ),")
    print("}")

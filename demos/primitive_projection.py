"""
Primitive projection and reconstruction
=======================================

Multiplicative invariants of graphs or chord diagrams live in a
convolution algebra: (f * g)(G) sums f on an induced subgraph times g
on the complementary one.  The logarithm of the identity in this
algebra is a projection onto primitives -- it kills every disconnected
object -- and the exponential rebuilds the original invariant from the
projected one.
"""

from wsys import (
    Poly,
    eps_independence_check,
    feps,
    graph_parse,
    perm_parse,
    primitive_eval_diagram,
    primitive_eval_graph,
    reconstruct_from_primitives,
    restrict_diagram,
    restrict_graph,
    skew_char,
)

# Projecting the two-parameter family of a single chord returns it as is:
single = perm_parse("(1 2)")
print("pi F on one chord:", primitive_eval_diagram(feps, single))
assert primitive_eval_diagram(feps, single) == feps(single)

# On two parallel chords -- a disjoint union -- the projection vanishes.
parallel = perm_parse("(1 2)(3 4)")
print("pi F on two parallel chords:", primitive_eval_diagram(feps, parallel))
assert primitive_eval_diagram(feps, parallel) == Poly.zero()

# On connected diagrams with at least two chords something remarkable
# happens: eps drops out entirely.
crossing = perm_parse("(1 3)(2 4)")
print("pi F on the crossing:", primitive_eval_diagram(feps, crossing))
ok, value = eps_independence_check(crossing)
assert ok and value == primitive_eval_diagram(feps, crossing)

triple = perm_parse("(1 5)(2 4)(3 6)")
ok, value = eps_independence_check(triple)
print("pi F on (1 5)(2 4)(3 6):", value, "  eps-free:", ok)

# The projection loses nothing: exponentiating it over the chord subsets
# reproduces the invariant exactly.
for text in ("(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 5)(3 6)"):
    b = perm_parse(text)
    ground = range(1, b.m // 2 + 1)
    rebuilt = reconstruct_from_primitives(feps, b, ground, restrict_diagram)
    assert rebuilt == feps(b)
print("exp recovers F from pi F on diagrams up to 3 chords")

# The same projection applies verbatim to graph invariants, here the
# skew characteristic polynomial Q.
k2 = graph_parse("n=2; edges=1-2")
print("Q on K2:   ", skew_char(k2))
print("pi Q on K2:", primitive_eval_graph(skew_char, k2))   # u^2 + 1 - u*u
two_isolated = graph_parse("n=2; edges=")
assert primitive_eval_graph(skew_char, two_isolated) == Poly.zero()
print("pi Q kills the two-vertex edgeless graph")

# Reconstruction holds for any multiplicative invariant with value 1 on
# the empty graph -- even where the projection happens to vanish.
k3 = graph_parse("n=3; edges=1-2,1-3,2-3")
print("pi Q on K3:", primitive_eval_graph(skew_char, k3))   # vanishes!
rebuilt = reconstruct_from_primitives(skew_char, k3, [1, 2, 3], restrict_graph)
assert rebuilt == skew_char(k3)
print("exp still recovers Q on K3:", rebuilt)

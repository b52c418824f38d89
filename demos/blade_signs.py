# Blades as bitmasks, and four ways to compute the product sign.
#
# A basis blade is a product of distinct generators e_1, e_2, ...
# packed into an integer: bit k-1 set means e_k is a factor.  Multiply
# two blades and the surviving factors are exactly the XOR of the
# masks; all the work is in the sign picked up while sorting and
# cancelling generators.  Run this file directly to see the pieces.

from cltwist import ALGORITHMS, blade_product, format_blade, tree_trace

p = 0b1011010  # e2 e4 e5 e7
q = 0b0110011  # e1 e2 e5 e6

print("p =", bin(p), "=", format_blade(p))
print("q =", bin(q), "=", format_blade(q))
print("p XOR q =", format_blade(p ^ q))
print()

# All four sign algorithms answer the same question.  The factor-list
# one literally sorts the generators by adjacent swaps, one sign flip
# per swap, and cancels equal neighbours; the others never build a
# list at all.
for mu in (1, -1):
    print(f"generator square mu = {mu:+d}")
    for name, func in ALGORITHMS.items():
        print(f"  {name:<10} sign = {func(p, q, mu):+d}")
    sign, mask = blade_product(p, q, mu)
    print(f"  so {format_blade(p)} * {format_blade(q)} = "
          f"{'-' if sign < 0 else ''}{format_blade(mask)}")
    print()

# The tree algorithm reads the masks one bit pair at a time, most
# significant first, walking a four-state automaton.  The letter says
# whether an odd number of p-bits has been consumed; the sign is the
# answer so far.
print("tree walk at mu = -1:")
for step in tree_trace(p, q, -1):
    print(f"  ({step.bit_p},{step.bit_q}) -> {step.state}")

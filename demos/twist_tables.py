# The twist table: all pair signs at once, and its fractal structure.
#
# Lay out the sign of i_p * i_q as a matrix with p indexing rows.
# Entries depend on the generator square mu only through a factor of
# mu per shared generator, so each entry is one of 1, -1, m, -m where m
# stands for mu.  The table for n+1 generators contains four copies
# of the table for n, dressed with signs: that is the block recursion
# this demo prints.

from cltwist import render_block_letters, render_table, table_blocks, table_direct

for n in (1, 2, 3):
    print(f"symbolic table, {n} generator{'s' if n > 1 else ''}:")
    print(render_table(table_direct(n), "text", None))

# The same tables come out of a completely different construction:
# start from the letter A and repeatedly substitute 2x2 blocks of
# signed letters, then drop the letters at the end.
for n in (1, 2, 3, 6, 8):
    assert table_blocks(n) == table_direct(n)
print("block construction agrees with the closed form up to n = 8")
print()

# One round before the end the construction is a grid of signed
# letters; A marks rows of even grade, B rows of odd grade.
print("letter view, 4 generators:")
print(render_block_letters(4))

# Substituting a number for m turns the symbols into honest signs.
print("numeric table, 2 generators, mu = -1:")
print(render_table(table_direct(2), "text", -1))

# With one generator squaring to -1 this is the multiplication sign
# pattern of the complex numbers; with two, the quaternions.

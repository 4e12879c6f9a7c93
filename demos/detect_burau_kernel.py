#!/usr/bin/env python3
"""Walk through the headline computation: a pure 5-strand braid that the
Burau representation cannot see, separated by the event representation.

The braid is a commutator of two conjugates whose reduced Burau matrices
commute, so Burau maps it to the identity.  The event representation
evaluates the same braid through its collinearity-event word and finds a
matrix that is visibly not the identity.
"""

from braidrep import (
    bigelow_beta,
    burau_reduced,
    corner_entry,
    numeric_rep_of_word,
    phi_pure,
    strand_assignment,
)

beta = bigelow_beta(5)
print(f"braid: {len(beta)} letters on {beta.n} strands")
print(f"strand permutation: {beta.permutation()}  (pure: "
      f"{beta.permutation().is_identity()})")

print()
print("reduced Burau matrix (4x4):")
reduced = burau_reduced(beta)
print(f"  identity: {reduced.is_identity()}")

print()
word = phi_pure(beta)
print(f"collinearity-event word: {len(word)} letters after free reduction")

# Substitute t1 = -1 and every other variable 1; the product of the 20x20
# specialised letter matrices, folded as column operations, lands away
# from the identity.
assignment = strand_assignment(5, {"t1": -1})
matrix = numeric_rep_of_word(word, assignment)
corner = corner_entry(matrix, (1, 2), (1, 2))
print(f"event representation at t1=-1, rest 1:")
print(f"  identity: {matrix.is_identity()}")
print(f"  <x_12| M |x_12> = {corner}")

# The same letters regarded on six strands, with t1 = s1 = -1.
beta6 = bigelow_beta(6)
assignment6 = strand_assignment(6, {"t1": -1, "s1": -1})
matrix6 = numeric_rep_of_word(phi_pure(beta6), assignment6)
print(f"on six strands at t1=s1=-1, rest 1:")
print(f"  identity: {matrix6.is_identity()}")
print(f"  <x_12| M |x_12> = {corner_entry(matrix6, (1, 2), (1, 2))}")

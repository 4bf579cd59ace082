"""The interval matrix product as a loop of scalar operations.

The reference for `hypcert.interval.FloatKernel.mat_mul`, which forms the
same sums in numpy batches and must match this loop bit for bit, and the
3x3 products of the label and holonomy oracles.  Tests only.
"""


def scalar_mat_mul(a, b):
    """a @ b for (nested sequences of) scalars of any kind, entry by entry,
    each entry summed left to right over k from the k = 0 product."""
    out = []
    bt = list(zip(*b))
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for k in range(1, len(row)):
                acc = acc + row[k] * col[k]
            out_row.append(acc)
        out.append(out_row)
    return out


def mat3_mul(a, b):
    """`scalar_mat_mul` of two 3x3 matrices, as nested tuples."""
    return tuple(map(tuple, scalar_mat_mul(a, b)))


def mat3_identity(one, zero):
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))

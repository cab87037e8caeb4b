"""Per-line CSV writers, kept as a test oracle.

These are the artifact writers as they were before every CSV went
through ``switchctl.fields.write_csv``: one f-string and one
``fh.write`` per line, with each entry formatted by ``repr`` of the
Python float and regime labels written as integers.  The blocked
writer must reproduce their bytes exactly, since the manifests hash
them.
"""

import numpy as np


def value_field_csv(field, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s,x,i,value\n")
        for k, s in enumerate(field.times):
            for j, x in enumerate(field.grid.x):
                for i in range(field.m):
                    fh.write(f"{float(s)!r},{float(x)!r},{i + 1},{float(field.values[k, j, i])!r}\n")


def strategy_csv(strategy, path):
    cols = ",".join(strategy.names)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"s,x,i,{cols}\n")
        for k, s in enumerate(strategy.times):
            for j, x in enumerate(strategy.grid.x):
                for i in range(strategy.m):
                    vals = ",".join(repr(float(v)) for v in strategy.values[k, j, i])
                    fh.write(f"{float(s)!r},{float(x)!r},{i + 1},{vals}\n")


def path_csv(sample, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,X,alpha\n")
        for t, x, a in zip(sample.times, sample.states, sample.regimes):
            fh.write(f"{float(t)!r},{float(x)!r},{int(a)}\n")


def phi_table_csv(path, times, rows_by_tau):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau,s,i,phi\n")
        for tau in sorted(rows_by_tau):
            rows = rows_by_tau[tau]
            for k, s in enumerate(times):
                for i in range(rows.shape[1]):
                    val = rows[k, i]
                    if np.isnan(val):
                        continue
                    fh.write(f"{float(tau)!r},{float(s)!r},{i + 1},{float(val)!r}\n")


def write_csv(path, header, columns):
    """``switchctl.fields.write_csv`` as one ``repr`` per broadcast entry
    and one ``fh.write`` per line."""
    columns = np.broadcast_arrays(*columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for line in zip(*(c.ravel().tolist() for c in columns)):
            fh.write(",".join(map(repr, line)) + "\n")

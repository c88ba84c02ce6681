"""Numerical laboratory for weighted unilateral shift operators.

The package namespace is empty; import the layers as submodules
(shiftlab.weights, shiftlab.operators, shiftlab.subspaces, shiftlab.beurling,
shiftlab.stability, shiftlab.report) or run the commands in shiftlab.cli.
"""

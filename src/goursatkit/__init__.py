"""Torsion tensors, kind classification, solution families and Frobenius
integrability checks for codimension-one (n+1)-webs given in closed form.

Import from the submodules (``goursatkit.jets``, ``goursatkit.exterior``,
...); importing the package loads none of them.
"""

__version__ = "0.1.0"

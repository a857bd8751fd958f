"""Exact combinatorics of the Yoneda extension algebra of GL2 in characteristic p.

The package computes signed monomial bases, gradings and dimension series
of the combinatorial model of that extension algebra, together with an
independent quiver-presentation oracle (exact rational linear algebra and
minimal projective resolutions) used to validate the model.

Each name is imported from its module (``gl2ext.tower``, ``gl2ext.oracle``
and so on); the package root exports nothing.
"""

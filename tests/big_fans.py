"""Large smooth complete surface fans, for tests and benchmarks of scale.

``strip_surface(k)`` has the rays (0,-1), (1,j) for -k <= j <= k, (0,1)
and (-1,0), in angular order, and the 2k + 4 cones of consecutive rays.
Each pair of consecutive rays has determinant 1, so the fan is smooth
and complete; for k >= 1 it is not Fano.
"""


def strip_surface(k):
    """The fan of ``2k + 4`` rays as a fan JSON dict."""
    rays = [[0, -1], *([1, j] for j in range(-k, k + 1)), [0, 1], [-1, 0]]
    cones = [[i, (i + 1) % len(rays)] for i in range(len(rays))]
    return {"name": f"strip{k}", "dim": 2, "rays": rays, "max_cones": cones}

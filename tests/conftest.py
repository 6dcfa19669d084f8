from hypothesis import settings

# No per-example deadline: CPU speed on shared hosts varies enough to trip
# the default 200 ms.  A fixed example stream makes any failure reproducible.
settings.register_profile("igopt", deadline=None, derandomize=True, database=None)
settings.load_profile("igopt")

from hypothesis import settings

# Property tests are part of the deterministic tier-1 run: derandomized, no
# example database on disk, and no per-example deadline on a shared host.
settings.register_profile("braidrep", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("braidrep")

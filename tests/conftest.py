from hypothesis import HealthCheck, settings

# Property tests draw the same examples on every run, and few of them, so
# the suite stays deterministic and fast; nothing is written to disk.
settings.register_profile(
    "tier1",
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tier1")

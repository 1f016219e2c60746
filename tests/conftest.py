from hypothesis import settings

# every property test replays the same examples on every run: no timing
# deadline, derandomized draws and no example database
settings.register_profile("squaretour", deadline=None, derandomize=True, database=None)
settings.load_profile("squaretour")

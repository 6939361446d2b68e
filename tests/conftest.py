from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# deadline, so their time and their verdict depend on the code alone.
settings.register_profile("anglekit", derandomize=True, deadline=None)
settings.load_profile("anglekit")

"""ProcessPoolExecutor's stand-in for tests: map runs in this process, so
no worker process starts."""


class SerialPool:
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)

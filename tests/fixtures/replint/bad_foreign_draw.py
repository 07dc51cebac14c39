"""rng-foreign-draw: draining another object's generator."""


class Scheduler:
    def __init__(self, link):
        self.link = link

    def jitter(self):
        # draining self.link's stream couples it to scheduler call order
        return self.link.rng.uniform(0.0, 1.0)


def loss_draw(link):
    return link.rng.random()


def fault_draw(link):
    # a generator held under any *rng name is still someone else's
    return link.fault._loss_rng.random()

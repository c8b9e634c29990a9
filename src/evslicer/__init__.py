"""Adaptive event-camera stream slicing triggered by a small spiking network.

The package turns a raw event stream into fixed-duration cells, feeds them to
a trainable spiking network whose output spike marks a slice boundary, and
trains that network with a membrane-potential timing loss so the boundaries
land where a downstream consumer (density target, classifier, ...) wants them.
"""

__version__ = "0.1.0"

import os as _os

from evslicer import _heap

_heap.set_policy(_heap.glibc(), _os.environ)

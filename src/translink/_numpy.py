"""numpy as the array modules bind it: `from ._numpy import np`.

The command line puts a deferred numpy in sys.modules before it imports the
array modules (see cli), so that a command that builds no array never loads
numpy. Binding that module object here loads nothing; numpy loads at the
first attribute a command reads. An `import numpy` statement would load it at
once, because the import system reads the module's __spec__. Code that starts
threads reads an attribute first (see mcsim.run_trials): the lazy loader of
Python 3.10 and 3.11 has no lock. Where nothing deferred numpy, this imports
it as usual.
"""

import sys

np = sys.modules.get("numpy")
if np is None:
    import numpy as np

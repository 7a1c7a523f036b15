from dataclasses import fields

import pytest

from qdrepeater import mcsim
from qdrepeater.params import default_parameters


@pytest.fixture(scope="session")
def params():
    return default_parameters()


@pytest.fixture(scope="session")
def trial_slice():
    """``trial_slice(records, np.s_[a:b])``: the ``TrialRecords`` of a range
    of trials, every column sliced alike.  The records take no index, as
    only the tests compare ranges of trials."""
    def take(records, trials: slice) -> mcsim.TrialRecords:
        return mcsim.TrialRecords(*(getattr(records, f.name)[trials]
                                    for f in fields(records)))
    return take

// Fixture: a call to a member marked ARPALINT-NOALLOC in another file.

#pragma once

#include "src/sim/fifo.h"

namespace fixture {

// ARPALINT-HOTPATH-BEGIN
inline void fill(Fifo& q) {
  q.push(1);  // the marker in fifo.h does not reach this file
}
// ARPALINT-HOTPATH-END

}  // namespace fixture

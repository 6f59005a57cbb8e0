/**
 * @file
 * Counting the hardware events a piece of component code raises. The
 * cache, TB, IBOX, write buffer and memory subsystem keep no counters
 * of their own: their events land in whichever obs::CounterRegistry
 * is in scope on the thread, so a test opens one around the code it
 * measures.
 */

#ifndef UPC780_TESTS_COUNTING_HH
#define UPC780_TESTS_COUNTING_HH

#include <cstdint>

#include "obs/counters.hh"

namespace upc780::testutil
{

/** A registry in scope for this object's lifetime. */
struct Counting
{
    obs::CounterRegistry reg;
    obs::ObsScope scope{&reg, nullptr};

    /** Events of kind @p e since construction. */
    uint64_t operator[](obs::Ev e) const { return reg.total(e); }
};

} // namespace upc780::testutil

#endif // UPC780_TESTS_COUNTING_HH

/**
 * @file
 * Forwarding header for common/json.hh, which new code includes. The
 * benchmark's frozen perfbench/upcbench.cc includes this path and
 * spells svc::json::Value, Array, Members and parse; the alias goes
 * with the next change to the benchmark.
 */

#ifndef UPC780_SVC_JSON_HH
#define UPC780_SVC_JSON_HH

#include "common/json.hh"

namespace upc780::svc
{
namespace json = upc780::json;
} // namespace upc780::svc

#endif // UPC780_SVC_JSON_HH

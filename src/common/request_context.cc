#include "common/request_context.h"

namespace dvms {
namespace request_detail {

constinit thread_local RequestContext t_request;

}  // namespace request_detail
}  // namespace dvms

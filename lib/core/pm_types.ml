type error =
  | No_such_region
  | Region_exists
  | Out_of_space
  | Permission_denied
  | Region_busy
  | Device_failed
  | Manager_down
  | Fenced
  | Bad_request of string

let pp_error ppf = function
  | No_such_region -> Format.pp_print_string ppf "no such region"
  | Region_exists -> Format.pp_print_string ppf "region already exists"
  | Out_of_space -> Format.pp_print_string ppf "out of persistent memory"
  | Permission_denied -> Format.pp_print_string ppf "permission denied"
  | Region_busy -> Format.pp_print_string ppf "region is open by clients"
  | Device_failed -> Format.pp_print_string ppf "both NPMUs unreachable"
  | Manager_down -> Format.pp_print_string ppf "persistent memory manager down"
  | Fenced -> Format.pp_print_string ppf "write fenced: volume epoch advanced"
  | Bad_request msg -> Format.fprintf ppf "bad request: %s" msg

let error_to_string e = Format.asprintf "%a" pp_error e

type region_info = {
  region_name : string;
  net_base : int;
  length : int;
  primary_npmu : int;
  mirror_npmu : int;
  epoch : int;
      (* volume epoch at grant time; write descriptors carry it so the
         NPMUs can fence grants issued before a takeover or resync *)
  mirror_active : bool;
      (* false while the PMM has demoted a persistently slow (or failed)
         mirror: clients must write single-copy under the degraded-
         durability contract and skip mirror reads until re-admission *)
  mirror_readable : bool;
      (* the mirror holds a whole copy and may serve reads: false while
         demoted and while a re-admitted mirror is still being rebuilt *)
}

let pp_region_info ppf r =
  Format.fprintf ppf "%s @@0x%x len=%d npmu=(%d,%d) epoch=%d%s" r.region_name r.net_base
    r.length r.primary_npmu r.mirror_npmu r.epoch
    (if r.mirror_active then "" else " mirror-demoted")

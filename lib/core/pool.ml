let cores_available () = Domain.recommended_domain_count ()

// An assembly file, which the modelState rule refuses.
